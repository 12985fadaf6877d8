/*
 * The fill of repro.compute.numpy_backend.build_numpy_aux_graph: a
 * counting sweep over every node's DTS points that sizes and locates
 * each state's row of the implicit auxiliary graph without writing any
 * per-transmission array.
 *
 * Each node's DTS points are swept in order, keeping the components
 * active at the current point in canonical (cost, repr(neighbor)) order:
 * the entry order of that point's discrete cost set.  Components that
 * end leave the list and components that start, counting-sorted by
 * their first point, are merged in, so every point's list comes out in
 * that order without sorting.  The list changes only where a component
 * starts or ends, so it is written once per *segment* (a run of points
 * where none does) and each state points at its segment's list.  A
 * cell's receiver is the neighbor's state at the reception grid point,
 * or none where the neighbor's DTS lacks that point (coverage the
 * reference build drops too), read from the node-major state table
 * through the state's reception column.  A cost level covers every
 * valid receiver up to the last cell of its equal-cost run, so one
 * running count per point tells which levels cover someone; those that
 * cover no one are a prefix and get no node.
 *
 * The caller allocates every array written here, scratch included,
 * sizes the segment lists exactly, and checks types, lengths and the
 * index ranges read below.
 */

#include <stdint.h>
#include <string.h>

enum { FILL_OK = 0, FILL_INCONSISTENT = 1 };

/*
 * node_base (N+1): first state id of each node.
 * state (N*(G+1)): state id of node i at grid point g, or -1, at
 *   i*(G+1) + g; column G is -1 throughout.  Node i's points are the
 *   first node_base[i+1] - node_base[i] grid points of its row that hold
 *   a state.
 * recv_at (G): the grid point (or G) of a reception from grid point g.
 * can_tx (G): whether a transmission at grid point g meets the deadline.
 * comp_ptr (N+1): node i's components are comp_ptr[i] .. comp_ptr[i+1]-1,
 *   in canonical order; component j is active on points a[j] <= l < b[j].
 * scratch: room for the largest node's points + 1 + 3 * components.
 * Writes tx_ptr (S+1), and per state tx_k0 (the levels that cover no
 * one), seg (where its segment's list starts in act) and col (its
 * reception column, recv_at of its grid point); act (act_len, exactly
 * the segment entries) holds every segment's active components;
 * out = {transmissions, edges, DCS levels}.
 */
int repro_aux_fill(
    int64_t N, int64_t G, const int64_t *node_base, const int32_t *state,
    const int64_t *recv_at, const uint8_t *can_tx, const int64_t *comp_ptr,
    const double *cost, const int64_t *nbr, const int64_t *a,
    const int64_t *b, int32_t *scratch, int64_t scratch_len,
    int64_t *tx_ptr, int32_t *tx_k0, int64_t *seg, int32_t *col,
    int32_t *act, int64_t act_len, int64_t *out)
{
    int64_t num_tx = 0, num_act = 0, num_edges = 0, levels = 0;
    tx_ptr[0] = 0;
    for (int64_t i = 0; i < N; i++) {
        const int64_t base = node_base[i], P = node_base[i + 1] - base;
        const int64_t c0 = comp_ptr[i], C = comp_ptr[i + 1] - c0;
        const int32_t *own = state + i * (G + 1);
        const double *w = cost + c0;
        const int64_t *nb = nbr + c0, *end = b + c0;
        if (P + 1 + 3 * C > scratch_len)
            return FILL_INCONSISTENT;
        if (P > 1)
            num_edges += P - 1; /* waiting edges */

        /* Counting sort of the components by first point, canonical
         * order kept: point l's starts end at first[l]. */
        int32_t *first = scratch, *start = first + P + 1;
        int32_t *cur = start + C, *nxt = cur + C, *tmp;
        memset(first, 0, (size_t)(P + 1) * sizeof(int32_t));
        for (int64_t j = c0; j < c0 + C; j++)
            if (a[j] < b[j])
                first[a[j] + 1]++;
        for (int64_t l = 0; l < P; l++)
            first[l + 1] += first[l];
        for (int64_t j = c0; j < c0 + C; j++)
            if (a[j] < b[j])
                start[first[a[j]]++] = (int32_t)(j - c0);

        int64_t n = 0, at = num_act; /* cur[0 .. n-1]: the active list */
        for (int64_t l = 0, g = -1; l < P; l++) {
            do
                g++;
            while (g < G && own[g] < 0);
            if (g >= G)
                return FILL_INCONSISTENT;
            /* drop the components that ended, merge in those starting */
            const int64_t y0 = l ? first[l - 1] : 0;
            int64_t m = 0, x = 0;
            for (int64_t y = y0; y < first[l]; y++) {
                for (; x < n && cur[x] < start[y]; x++)
                    if (end[cur[x]] > l)
                        nxt[m++] = cur[x];
                nxt[m++] = start[y];
            }
            for (; x < n; x++)
                if (end[cur[x]] > l)
                    nxt[m++] = cur[x];
            if (l == 0 || first[l] > y0 || m != n) {
                /* a new segment: its list goes to act once */
                if (m > act_len - num_act)
                    return FILL_INCONSISTENT;
                at = num_act;
                for (int64_t k = 0; k < m; k++)
                    act[num_act++] = (int32_t)(c0 + nxt[k]);
            }
            tmp = cur, cur = nxt, nxt = tmp, n = m;

            int64_t kept = 0;
            if (can_tx[g]) {
                const int32_t *rs = state + recv_at[g];
                int64_t ok = 0, run = 0;
                for (int64_t k = 0; k < n; k++) {
                    if (rs[nb[cur[k]] * (G + 1)] >= 0)
                        ok++;
                    /* at the end of a run of equal costs, each of its
                     * levels covers every valid receiver so far */
                    if (k + 1 < n && w[cur[k + 1]] == w[cur[k]])
                        continue;
                    if (ok > 0) {
                        kept += k - run + 1;
                        num_edges += (k - run + 1) * (1 + ok);
                    }
                    run = k + 1;
                }
            }
            if (kept > 0)
                levels += n;
            num_tx += kept;
            tx_k0[base + l] = (int32_t)(n - kept);
            tx_ptr[base + l + 1] = num_tx;
            seg[base + l] = at;
            col[base + l] = (int32_t)recv_at[g];
        }
    }
    if (num_act != act_len)
        return FILL_INCONSISTENT;
    out[0] = num_tx;
    out[1] = num_edges;
    out[2] = levels;
    return FILL_OK;
}
