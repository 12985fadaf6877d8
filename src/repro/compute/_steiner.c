/*
 * The greedy directed-Steiner search of
 * repro.compute.numpy_backend.greedy_incremental_dst_numpy, over the
 * implicit auxiliary graph's arrays.
 *
 * A line-for-line port of the incremental multi-source Dijkstra whose
 * pop-order argument that function's docstring gives: heap keys are
 * (distance, id), every test is the same IEEE double comparison, waiting
 * chains are expanded in place, and a state queues only its first pending
 * cost level.  Compiled with -ffp-contract=off, so no comparison sees a
 * fused multiply-add or other re-associated sum.
 *
 * Ids: states 0 .. S-1, then transmission j as S + j.  Transmission j
 * of state s is level k = tx_k0[s] + j - tx_ptr[s] of the segment list
 * at act + seg[s] and costs cost[act[seg[s] + k]]; its receivers are the
 * valid states state[nbr[c] * width + col[s]] of the list's components c
 * up to the end of level k's equal-cost run.  The caller checks array
 * types, lengths, that S + T fits the heap's int32 ids, and every index
 * read here: monotone tx_ptr, each state's list inside act, components,
 * neighbor rows, columns and receivers in range, and the root and
 * terminal ids.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define EXPANDED 1  /* a transmission expanded at its current distance */
#define IN_TREE 2
#define UNCOVERED 4 /* an uncovered terminal; never part of a pending test */
#define LIVE (EXPANDED | IN_TREE)

enum { STEINER_OK = 0, STEINER_INFEASIBLE = 1, STEINER_NO_MEMORY = 2 };

typedef struct {
    double d;
    int32_t id; /* the caller checks that every id fits */
    int32_t st; /* a transmission's state, carried so no pop bisects */
} entry;

typedef struct {
    entry *a;
    int64_t n, cap;
} heap;

static int before(const entry *x, const entry *y)
{
    return x->d < y->d || (x->d == y->d && x->id < y->id);
}

static int heap_push(heap *h, double d, int64_t id, int64_t st)
{
    if (h->n == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 1024;
        entry *a = realloc(h->a, (size_t)cap * sizeof(entry));
        if (!a)
            return -1;
        h->a = a;
        h->cap = cap;
    }
    int64_t i = h->n++;
    entry e = {d, (int32_t)id, (int32_t)st};
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!before(&e, &h->a[p]))
            break;
        h->a[i] = h->a[p];
        i = p;
    }
    h->a[i] = e;
    return 0;
}

static entry heap_pop(heap *h)
{
    entry top = h->a[0];
    entry last = h->a[--h->n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= h->n)
            break;
        if (c + 1 < h->n && before(&h->a[c + 1], &h->a[c]))
            c++;
        if (!before(&h->a[c], &last))
            break;
        h->a[i] = h->a[c];
        i = c;
    }
    if (h->n > 0)
        h->a[i] = last;
    return top;
}

/* The state owning transmission j: bisect_right(tx_ptr, j) - 1; only a
 * transmission root and the graft walk need it. */
static int64_t owner(const int64_t *tx_ptr, int64_t S, int64_t j)
{
    int64_t lo = 0, hi = S + 1;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (tx_ptr[mid] <= j)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo - 1;
}

/* act[lv(..., s) + j] is the component of state s's transmission j. */
static int64_t lv(const int64_t *tx_ptr, const int32_t *tx_k0,
                  const int64_t *seg, int64_t s)
{
    return seg[s] + tx_k0[s] - tx_ptr[s];
}

/* The first pending transmission in [lo, hi), or hi. */
static int64_t first_pending(const uint8_t *tflag, int64_t lo, int64_t hi)
{
    while (lo < hi && (tflag[lo] & LIVE))
        lo++;
    return lo;
}

typedef struct {
    int64_t S;
    double *dist;
    uint8_t *sflag, *tflag;
    heap h;
    int64_t uncovered;
} search;

/* Puts id i, whose state is st, in the tree. */
static int enter_tree(search *s, int64_t i, int64_t st)
{
    uint8_t *f;
    if (i < s->S) {
        f = &s->sflag[i];
        s->dist[i] = 0.0;
    } else {
        f = &s->tflag[i - s->S];
    }
    if (*f & UNCOVERED)
        s->uncovered--;
    *f = IN_TREE;
    return heap_push(&s->h, 0.0, i, st);
}

void repro_steiner_free(int64_t *tree)
{
    free(tree);
}

/*
 * Runs the search from `root` until every terminal is in the tree.
 * On return `*tree` (free it with repro_steiner_free) holds `*tree_len`
 * ids, the (parent, child) pairs of every graft in graft order; on
 * STEINER_INFEASIBLE those of the grafts made before the search ran dry.
 */
int repro_steiner_search(
    int64_t S, int64_t T, const uint8_t *wait, const int64_t *tx_ptr,
    const int32_t *tx_k0, const int64_t *seg, const int32_t *col,
    const int32_t *act, const double *cost, const int64_t *nbr,
    const int32_t *state, int64_t width, int64_t root,
    const int64_t *terminals, int64_t num_terminals, int64_t **tree,
    int64_t *tree_len, int64_t *expansions, int64_t *grafts)
{
    const double INF = INFINITY;
    int rc = STEINER_NO_MEMORY;
    int64_t n = 0, cap = 1024, i;
    int64_t *out = malloc((size_t)cap * sizeof(int64_t));
    double *dlast = malloc((size_t)(S ? S : 1) * sizeof(double));
    int64_t *pred = malloc((size_t)(S ? S : 1) * sizeof(int64_t));
    search s = {S, NULL, NULL, NULL, {NULL, 0, 0}, 0};
    s.dist = malloc((size_t)(S ? S : 1) * sizeof(double));
    s.sflag = calloc((size_t)(S ? S : 1), 1);
    s.tflag = calloc((size_t)(T ? T : 1), 1);
    *expansions = 0;
    *grafts = 0;
    if (!out || !dlast || !pred || !s.dist || !s.sflag || !s.tflag)
        goto done;
    for (i = 0; i < S; i++) {
        s.dist[i] = INF;
        dlast[i] = INF;
        pred[i] = -1;
    }
    for (i = 0; i < num_terminals; i++) {
        int64_t t = terminals[i];
        uint8_t *f = t < S ? &s.sflag[t] : &s.tflag[t - S];
        if (!(*f & UNCOVERED)) {
            *f |= UNCOVERED;
            s.uncovered++;
        }
    }
    if (enter_tree(&s, root, root < S ? root : owner(tx_ptr, S, root - S)))
        goto done;

    while (s.uncovered > 0) {
        int64_t target = -1;
        while (s.h.n > 0) {
            entry e = heap_pop(&s.h);
            double dd = e.d;
            int64_t u = e.id;
            if (u < S) {
                if (dd > s.dist[u])
                    continue; /* stale entry */
                /* Expand u, then each state its waiting edge lowers, in
                 * place: that state would be the next pop. */
                for (;;) {
                    ++*expansions;
                    if (s.sflag[u] & UNCOVERED) {
                        target = u;
                        break;
                    }
                    int64_t lo = tx_ptr[u], hi = tx_ptr[u + 1];
                    if (lo < hi) {
                        const int64_t c = lv(tx_ptr, tx_k0, seg, u);
                        double old = dlast[u];
                        dlast[u] = dd;
                        if (dd < old && old < INF) {
                            /* a lower-distance re-expansion */
                            for (int64_t j = lo; j < hi; j++) {
                                if ((s.tflag[j] & LIVE) == EXPANDED) {
                                    double w = cost[act[c + j]];
                                    if (dd + w < old + w)
                                        s.tflag[j] &= (uint8_t)~EXPANDED;
                                }
                            }
                        }
                        int64_t j = first_pending(s.tflag, lo, hi);
                        if (j < hi) {
                            double nd = dd + cost[act[c + j]];
                            if (nd < INF && heap_push(&s.h, nd, S + j, u))
                                goto done;
                        }
                    }
                    if (!wait[u] || dd >= s.dist[u + 1])
                        break;
                    pred[u + 1] = u;
                    u += 1;
                    s.dist[u] = dd;
                }
                if (target >= 0)
                    break;
                continue;
            }
            int64_t j = u - S;
            uint8_t f = s.tflag[j];
            if (f & EXPANDED)
                continue; /* an equal-key duplicate */
            int64_t st = e.st;
            const int64_t c = lv(tx_ptr, tx_k0, seg, st);
            if (f & IN_TREE) {
                /* in the tree: only its graft entry (0.0, u) is live */
                if (dd > 0.0)
                    continue;
                s.tflag[j] |= EXPANDED;
            } else {
                double d = dlast[st];
                if (dd > d + cost[act[c + j]])
                    continue; /* stale entry */
                s.tflag[j] |= EXPANDED;
                int64_t end = tx_ptr[st + 1];
                int64_t nxt = first_pending(s.tflag, j + 1, end);
                if (nxt < end) {
                    double nd = d + cost[act[c + nxt]];
                    if (nd < INF && heap_push(&s.h, nd, S + nxt, st))
                        goto done;
                }
            }
            ++*expansions;
            if (s.tflag[j] & UNCOVERED) {
                target = u;
                break;
            }
            /* The level covers the valid receivers of its segment list
             * up to the end of its equal-cost run. */
            const int32_t *rs = state + col[st];
            int64_t last = j, hi = tx_ptr[st + 1];
            while (last + 1 < hi
                   && cost[act[c + last + 1]] == cost[act[c + last]])
                last++;
            for (int64_t k = seg[st]; k <= c + last; k++) {
                int64_t v = rs[nbr[act[k]] * width];
                if (v >= 0 && dd < s.dist[v]) {
                    s.dist[v] = dd;
                    pred[v] = u;
                    if (heap_push(&s.h, dd, v, v))
                        goto done;
                }
            }
        }
        if (target < 0) {
            rc = STEINER_INFEASIBLE;
            goto done;
        }
        /* Graft the pred chain back to the nearest tree node, appending
         * its (parent, child) pairs from the target up, then reversing
         * them into root-to-target order; a transmission's pred is its
         * state. */
        int64_t start = n;
        int64_t v = target;
        while (v >= 0) {
            int64_t p;
            if (v < S) {
                if (s.sflag[v] & IN_TREE)
                    break;
                p = pred[v];
            } else {
                if (s.tflag[v - S] & IN_TREE)
                    break;
                p = owner(tx_ptr, S, v - S);
            }
            if (n + 2 > cap) {
                int64_t *grown =
                    realloc(out, (size_t)(2 * cap) * sizeof(int64_t));
                if (!grown)
                    goto done;
                out = grown;
                cap *= 2;
            }
            out[n++] = p;
            out[n++] = v;
            v = p;
        }
        for (int64_t a = start, b = n - 2; a < b; a += 2, b -= 2) {
            int64_t p = out[a], c = out[a + 1];
            out[a] = out[b];
            out[a + 1] = out[b + 1];
            out[b] = p;
            out[b + 1] = c;
        }
        for (int64_t k = start + 1; k < n; k += 2)
            if (enter_tree(&s, out[k], out[k - 1]))
                goto done;
        ++*grafts;
    }
    rc = STEINER_OK;

done:
    free(s.h.a);
    free(s.tflag);
    free(s.sflag);
    free(s.dist);
    free(pred);
    free(dlast);
    *tree = out;
    *tree_len = out ? n : 0;
    return rc;
}
