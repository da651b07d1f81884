/* Optional C hot path for presorted CART growth and packed inference.
 *
 * Compiled on demand by repro/forest/_cgrower.py (plain `cc -shared`, no
 * Python headers needed) and driven through ctypes.  repro_grow_forest
 * grows all of a fit's trees in one call, bootstrap draws included, and
 * writes them straight into the packed layout.  Every tree grows one way:
 * on a bootstrap sample, drawing m features per split, splitting each
 * node until it is pure or holds one sample.  It must produce the same
 * bits as the reference grower in repro/forest/tree.py driven tree by
 * tree from repro/forest/forest.py: the same node arrays and the same RNG
 * state afterwards.  It reproduces each numpy behaviour that grower
 * depends on, and _cgrower.load() checks the reproductions against numpy
 * before it hands the kernel out:
 *
 *  - bootstrap draws replay Generator.integers(0, n, size=n), and feature
 *    draws Generator.choice(d, size=m, replace=False), on the generator's
 *    own bitgen_t;
 *  - each feature's stable argsort of a sample is a counting sort over
 *    dense ranks the caller computes once per fit;
 *  - node target sums are numpy's pairwise summation (np.add.reduce);
 *  - node sums of squares call the very cblas_ddot numpy's np.dot calls,
 *    passed in as a function pointer, because its rounding depends on the
 *    CPU kernel the BLAS picks;
 *  - prefix sums run left-to-right exactly like np.cumsum, the combined-SSE
 *    expression evaluates in the reference ufunc chain's operand order, and
 *    the build flags forbid FMA contraction (-ffp-contract=off);
 *  - the argmin scan visits candidates position-major and keeps the first
 *    minimum, matching np.argmin over the reference (n_candidates, m)
 *    block, tie-breaks included;
 *  - the gain test squares with libm pow, as Python's float ** 2 does
 *    (pow is not always x * x), with the exponent read at run time so the
 *    compiler cannot fold it into a multiplication.
 *
 * It also routes query rows through a packed forest (repro_traverse, over
 * the routing table repro_build_routes fills; repro_traverse_pool for a
 * pool with a bitmap index) and reduces per-tree predictions to their
 * across-tree mean and std the way numpy's axis-0 reductions do
 * (repro_tree_mean_std), which the load-time check covers too.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t ip; /* numpy intp on LP64 platforms */

/* numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* cblas_ddot with 64-bit (ILP64) or 32-bit (LP64) integer arguments. */
typedef double (*ddot64_t)(int64_t, const double *, int64_t, const double *,
                           int64_t);
typedef double (*ddot32_t)(int32_t, const double *, int32_t, const double *,
                           int32_t);

static volatile double square_exponent = 2.0;

/* Packed-forest traversal.
 *
 * The routing table holds one entry per node of the packed forest: its
 * threshold, its feature and its two children side by side, plus its
 * height (the longest path from it down to a leaf).  go[1] is the child a
 * row takes when x[feat] <= thr holds (the left child) and go[0] the one
 * it takes otherwise, NaN included, exactly as the numpy loop routes.
 * Leaves point to themselves through both slots (feature 0, so the load
 * stays in bounds), so a row that has reached its leaf stays there.
 */
typedef struct {
    double thr;
    int32_t feat;
    int32_t go[2];
    int32_t height;
} route_t;

/* Rows routed through one tree in lockstep.  A compile-time constant: the
 * independent rows of a block overlap their loads in the CPU. */
#define BLOCK 16

/* Fill the routing table of the packed forest: one backward pass over the
 * node ids, so every child's height is known before its parent's.  Nodes
 * with feature < 0 are leaves.  Returns 0, or -1 when an internal node has
 * a child at an id not greater than its own or outside [0, n_nodes), a
 * feature outside [0, d), or the ids do not fit the table's int32. */
ip repro_build_routes(const ip *feature, const double *threshold,
                      const ip *left, const ip *right, ip n_nodes, ip d,
                      route_t *table)
{
    if (n_nodes > INT32_MAX)
        return -1;
    for (ip i = n_nodes - 1; i >= 0; i--) {
        route_t *r = table + i;
        const ip f = feature[i];
        if (f < 0) {
            *r = (route_t){0.0, 0, {(int32_t)i, (int32_t)i}, 0};
            continue;
        }
        const ip lo = left[i], hi = right[i];
        if (f >= d || lo <= i || hi <= i || lo >= n_nodes || hi >= n_nodes)
            return -1;
        const int32_t hl = table[lo].height, hr = table[hi].height;
        *r = (route_t){threshold[i], (int32_t)f, {(int32_t)hi, (int32_t)lo},
                       1 + (hl > hr ? hl : hr)};
    }
    return 0;
}

/* Route the m rows row[0..m) from `root` for `steps` levels into node[]. */
static inline void route_block(const route_t *table, const double *const *row,
                               int m, int32_t root, int32_t steps,
                               int32_t *node)
{
    for (int k = 0; k < m; k++)
        node[k] = root;
    for (int32_t s = 0; s < steps; s++)
        for (int k = 0; k < m; k++) {
            const route_t *r = table + node[k];
            node[k] = r->go[row[k][r->feat] <= r->thr];
        }
}

/* Route every (tree, row) lane of the T trees `tree_ids` to its leaf.
 *
 * `table` comes from repro_build_routes, `offsets` holds each tree's root
 * id, `X` is the row-major (n_rows, d) query matrix.  Every block takes
 * exactly its tree's height in steps, so no step tests for a leaf and the
 * child is picked by indexing with the comparison, never by a branch.
 * Lane (t, i) goes to out[t*n_rows + i]: payload[leaf] as a double when
 * `payload` is given, else the global leaf id as an ip.  Pure comparisons
 * and copies, so bit-identical to the numpy loop by construction.
 */
void repro_traverse(const route_t *table, const ip *offsets,
                    const ip *tree_ids, ip T, const double *X, ip n_rows,
                    ip d, const double *payload, void *out)
{
    const double *row[BLOCK];
    int32_t node[BLOCK];
    for (ip t = 0; t < T; t++) {
        const int32_t root = (int32_t)offsets[tree_ids[t]];
        const int32_t steps = table[root].height;
        for (ip i0 = 0; i0 < n_rows; i0 += BLOCK) {
            const int m = n_rows - i0 < BLOCK ? (int)(n_rows - i0) : BLOCK;
            for (int k = 0; k < m; k++)
                row[k] = X + (i0 + k) * d;
            if (m == BLOCK)
                route_block(table, row, BLOCK, root, steps, node);
            else
                route_block(table, row, m, root, steps, node);
            const ip base = t * n_rows + i0;
            if (payload) {
                double *o = (double *)out + base;
                for (int k = 0; k < m; k++)
                    o[k] = payload[node[k]];
            } else {
                ip *o = (ip *)out + base;
                for (int k = 0; k < m; k++)
                    o[k] = node[k];
            }
        }
    }
}

/* Pool traversal over a range-encoded bitmap index.
 *
 * A fixed pool takes few distinct values per feature, so its index lists,
 * per feature f, the sorted distinct non-NaN values levels[starts[f] ..
 * starts[f+1]), and per level j of them the bitset bits[j] of the rows
 * whose value is <= that level: row r is bit r % 64 of word r / 64, W
 * words per bitset, NaN rows in none.  A row then satisfies x[f] <= thr
 * exactly when it is in the bitset of the last level <= thr (in none when
 * no level is, NaN thresholds included), so splitting a node's row set is
 * one AND and one AND-NOT per word, with the walk's own comparisons.
 */

/* A node's rows go to the per-row walk once they number at most
 * WALK_PER_WORD * W: from there one walk step per row costs less than
 * another pass over W words. */
#define WALK_PER_WORD 4

/* Bits set in x.  Written out because under plain -O2 (no -mpopcnt)
 * __builtin_popcountll becomes a call into libgcc. */
static inline ip popcount64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (ip)((x * 0x0101010101010101ULL) >> 56);
}

/* How many of the L ascending levels satisfy level <= thr: a binary search
 * on that very comparison, so a NaN threshold counts none. */
static inline ip levels_le(const double *levels, ip L, double thr)
{
    ip lo = 0, hi = L;
    while (lo < hi) {
        const ip mid = lo + (hi - lo) / 2;
        if (levels[mid] <= thr)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* out[id[k]] = payload[leaf[k]] (or the leaf id) for k < m. */
static inline void put_leaves(const ip *id, const int32_t *leaf, int m,
                              const double *payload, void *out)
{
    if (payload) {
        double *o = (double *)out;
        for (int k = 0; k < m; k++)
            o[id[k]] = payload[leaf[k]];
    } else {
        ip *o = (ip *)out;
        for (int k = 0; k < m; k++)
            o[id[k]] = leaf[k];
    }
}

/* Every row in `set` reached leaf `leaf`. */
static void fill_set(const uint64_t *set, ip W, int32_t leaf,
                     const double *payload, void *out)
{
    for (ip w = 0; w < W; w++)
        for (uint64_t b = set[w]; b; b &= b - 1) {
            const ip r = w * 64 + __builtin_ctzll(b);
            if (payload)
                ((double *)out)[r] = payload[leaf];
            else
                ((ip *)out)[r] = leaf;
        }
}

/* Walk the rows in `set` from `node` to their leaves, BLOCK at a time. */
static void walk_set(const route_t *table, const double *X, ip d,
                     const uint64_t *set, ip W, int32_t node,
                     const double *payload, void *out)
{
    const int32_t steps = table[node].height;
    const double *row[BLOCK];
    ip id[BLOCK];
    int32_t leaf[BLOCK];
    int m = 0;
    for (ip w = 0; w < W; w++)
        for (uint64_t b = set[w]; b; b &= b - 1) {
            id[m] = w * 64 + __builtin_ctzll(b);
            row[m] = X + id[m] * d;
            if (++m == BLOCK) {
                route_block(table, row, BLOCK, node, steps, leaf);
                put_leaves(id, leaf, BLOCK, payload, out);
                m = 0;
            }
        }
    if (m) {
        route_block(table, row, m, node, steps, leaf);
        put_leaves(id, leaf, m, payload, out);
    }
}

typedef struct {
    int32_t node;
    ip count, slot;
} pending_t;

/* repro_traverse for the rows of a pool with a bitmap index: the same
 * arguments and output, plus the index (levels, starts, bits) of the
 * row-major (n_rows, d) matrix X.
 *
 * Per tree it descends depth-first holding each node's rows as one bitset
 * in a slot of a stack: a split leaves the right child's rows in the
 * node's slot and puts the left child's in the next one, so a node's
 * slot is at most its depth.  A leaf scatters its value (or id) to its
 * rows; a node with at most WALK_PER_WORD * W rows hands them to the walk.
 * Every row ends in the leaf the walk reaches, so the output is the same.
 * Returns 0, or -1 if scratch allocation fails.
 */
ip repro_traverse_pool(const route_t *table, const ip *offsets,
                       const ip *tree_ids, ip T, const double *X, ip n_rows,
                       ip d, const double *levels, const ip *starts,
                       const uint64_t *bits, const double *payload, void *out)
{
    const ip W = (n_rows + 63) / 64;
    int32_t max_height = 0;
    for (ip t = 0; t < T; t++) {
        const int32_t h = table[offsets[tree_ids[t]]].height;
        if (h > max_height)
            max_height = h;
    }
    const size_t n_slots = (size_t)max_height + 1;
    uint64_t *sets = malloc(n_slots * (size_t)W * sizeof(uint64_t));
    pending_t *stack = malloc(n_slots * sizeof(pending_t));
    if (!sets || !stack) {
        free(sets);
        free(stack);
        return -1;
    }
    for (ip t = 0; t < T; t++) {
        void *out_t = payload ? (void *)((double *)out + t * n_rows)
                              : (void *)((ip *)out + t * n_rows);
        for (ip w = 0; w < W; w++)
            sets[w] = ~0ULL;
        if (n_rows % 64)
            sets[W - 1] = (1ULL << (n_rows % 64)) - 1;
        ip sp = 0;
        stack[sp++] = (pending_t){(int32_t)offsets[tree_ids[t]], n_rows, 0};
        while (sp > 0) {
            const pending_t p = stack[--sp];
            int32_t node = p.node;
            ip k = p.count, slot = p.slot;
            for (;;) {
                uint64_t *rows = sets + slot * W;
                const route_t *r = table + node;
                if (r->height == 0) {
                    fill_set(rows, W, node, payload, out_t);
                    break;
                }
                if (k <= WALK_PER_WORD * W) {
                    walk_set(table, X, d, rows, W, node, payload, out_t);
                    break;
                }
                const ip first = starts[r->feat];
                const ip c = levels_le(levels + first,
                                       starts[r->feat + 1] - first, r->thr);
                if (c == 0) { /* no row satisfies x <= thr */
                    node = r->go[0];
                    continue;
                }
                const uint64_t *le = bits + (first + c - 1) * W;
                uint64_t *left = rows + W;
                ip n_left = 0;
                for (ip w = 0; w < W; w++) {
                    const uint64_t b = rows[w], m = le[w];
                    left[w] = b & m;
                    rows[w] = b & ~m;
                    n_left += popcount64(b & m);
                }
                if (n_left == 0) { /* the node's slot still holds them all */
                    node = r->go[0];
                    continue;
                }
                if (n_left < k)
                    stack[sp++] = (pending_t){r->go[0], k - n_left, slot};
                node = r->go[1];
                k = n_left;
                slot++;
            }
        }
    }
    free(sets);
    free(stack);
    return 0;
}

/* numpy's DOUBLE_pairwise_sum over a unit-stride block. */
static double pairwise_sum(const double *a, ip n)
{
    if (n < 8) {
        double res = -0.0;
        for (ip i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        ip i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    /* Halve, rounding the split point down to a multiple of 8. */
    ip n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.add.reduce(a): the reduction starts from the identity 0.0. */
double repro_sum(const double *a, ip n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* np.dot(a, a) for a 1-D array: one element is a plain product (numpy's
 * scalar shortcut), anything longer is 0.0 + cblas_ddot. */
double repro_sumsq(const void *ddot, ip ilp64, const double *a, ip n)
{
    if (n == 1)
        return a[0] * a[0];
    if (ilp64)
        return 0.0 + ((ddot64_t)ddot)(n, a, 1, a, 1);
    return 0.0 + ((ddot32_t)ddot)((int32_t)n, a, 1, a, 1);
}

/* Mean and population std across the T rows of the row-major (T, width)
 * matrix P, for its n columns `cols` (NULL: columns 0..n-1), without
 * copying them out.  Bit-identical to P[:, cols].mean(axis=0) and
 * .std(axis=0) on the C-contiguous copy numpy reduces: numpy's axis-0
 * add.reduce starts from 0.0 and, over two or more columns, adds the
 * trees in order; over a single column it runs the pairwise sum down that
 * column instead.  std is the two-pass sqrt(sum((x - mean)**2) / T),
 * squaring before adding.  `sd` may be NULL when only the mean is wanted.
 * Returns 0, or -1 if scratch allocation fails.
 */
ip repro_tree_mean_std(const double *P, ip T, ip width, const ip *cols,
                       ip n, double *mean, double *sd)
{
    const double Td = (double)T;
    if (n == 1) {
        double *buf = calloc((size_t)T + 1, sizeof(double));
        if (!buf)
            return -1;
        const double *col = P + (cols ? cols[0] : 0);
        for (ip t = 0; t < T; t++)
            buf[t] = col[t * width];
        const double m = (0.0 + pairwise_sum(buf, T)) / Td;
        mean[0] = m;
        if (sd) {
            for (ip t = 0; t < T; t++) {
                const double dv = col[t * width] - m;
                buf[t] = dv * dv;
            }
            sd[0] = sqrt((0.0 + pairwise_sum(buf, T)) / Td);
        }
        free(buf);
        return 0;
    }
    for (ip j = 0; j < n; j++)
        mean[j] = 0.0;
    for (ip t = 0; t < T; t++) {
        const double *row = P + t * width;
        for (ip j = 0; j < n; j++)
            mean[j] += row[cols ? cols[j] : j];
    }
    for (ip j = 0; j < n; j++)
        mean[j] /= Td;
    if (!sd)
        return 0;
    for (ip j = 0; j < n; j++)
        sd[j] = 0.0;
    for (ip t = 0; t < T; t++) {
        const double *row = P + t * width;
        for (ip j = 0; j < n; j++) {
            const double dv = row[cols ? cols[j] : j] - mean[j];
            sd[j] += dv * dv;
        }
    }
    for (ip j = 0; j < n; j++)
        sd[j] = sqrt(sd[j] / Td);
    return 0;
}

/* random_bounded_uint64(bitgen, 0, rng, 0, 0): a draw from [0, rng] by
 * Lemire's multiply-and-reject on next_uint32 (numpy/random/src/
 * distributions/distributions.c).  rng < 2**32 always holds here. */
static ip bounded(bitgen_t *bg, uint64_t rng)
{
    if (rng == 0)
        return 0;
    if (rng == 0xFFFFFFFFULL)
        return (ip)bg->next_uint32(bg->state);
    const uint32_t rng_excl = (uint32_t)rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (ip)(m >> 32);
}

/* Generator.choice(d, size=m, replace=False) into out[0..m).
 *
 * numpy/random/_generator.pyx: a large population with a large sample
 * shuffles the tail of arange(d); otherwise Floyd's algorithm picks the
 * set and a Fisher-Yates pass shuffles it.  `out` must hold d entries and
 * `seen` d zeroed bytes (left zeroed on return).
 */
void repro_choice(bitgen_t *bg, ip d, ip m, ip *out, unsigned char *seen)
{
    if (d > 10000 && m > d / 50) {
        for (ip i = 0; i < d; i++)
            out[i] = i;
        const ip first = d - m > 1 ? d - m : 1;
        for (ip i = d - 1; i >= first; i--) {
            const ip j = bounded(bg, (uint64_t)i);
            const ip t = out[j];
            out[j] = out[i];
            out[i] = t;
        }
        memmove(out, out + (d - m), (size_t)m * sizeof(ip));
        return;
    }
    for (ip j = d - m; j < d; j++) {
        ip val = bounded(bg, (uint64_t)j);
        if (seen[val])
            val = j; /* every earlier pick is < j, so j is free */
        seen[val] = 1;
        out[j - d + m] = val;
    }
    for (ip i = 0; i < m; i++)
        seen[out[i]] = 0;
    for (ip i = m - 1; i >= 1; i--) {
        const ip j = bounded(bg, (uint64_t)i);
        const ip t = out[j];
        out[j] = out[i];
        out[i] = t;
    }
}

typedef struct {
    ip node, start, k;
} frame;

/* Scratch one repro_grow_forest call allocates once and every tree reuses.
 * `inleft` and `seen` start zeroed, and grow_tree leaves them zeroed. */
typedef struct {
    double *ybuf;          /* n */
    ip *tmp;               /* n */
    frame *stack;          /* n */
    ip *feats;             /* d + 1 */
    unsigned char *inleft; /* n */
    unsigned char *seen;   /* d + 1 */
} scratch_t;

/* Grow one presorted CART tree depth-first.
 *
 * `XT` is the (d, n) transposed training sample and `y` its targets.
 * `order` holds d+1 rows of n sample ids: row f in ascending XT[f]
 * order (stable), row d ascending.  Each node owns the same segment
 * [start, start+k) of every row, and a split partitions that segment in
 * place, stably, into [left | right], so the rows stay sorted within each
 * child.  `bg` is the tree's bit generator (used only when m < d).  A node
 * stays a leaf when it holds one sample, its impurity is at most 1e-12, or
 * no split of its m drawn features gains more than 1e-12.
 *
 * Node arrays go to two (4, cap) blocks: `inodes` rows are feature,
 * left, right, count and `fnodes` rows are threshold, value, variance,
 * impurity.  The tree takes ids base, base+1, ... (at most 2n-1 of them)
 * and its child links hold those global ids.  Local ids follow the
 * reference grower: children get the next two ids when their parent
 * splits, and the right child is grown first.  Returns the node count.
 */
static ip grow_tree(const double *XT, const double *y, ip *order, ip n, ip d,
                    ip m, bitgen_t *bg, const void *ddot, ip ilp64,
                    ip *inodes, double *fnodes, ip cap, ip base,
                    const scratch_t *sc)
{
    ip *feature = inodes + base, *left = inodes + cap + base;
    ip *right = inodes + 2 * cap + base, *count = inodes + 3 * cap + base;
    double *threshold = fnodes + base, *value = fnodes + cap + base;
    double *variance = fnodes + 2 * cap + base;
    double *impurity = fnodes + 3 * cap + base;
    double *ybuf = sc->ybuf;
    ip *tmp = sc->tmp, *feats = sc->feats;
    frame *stack = sc->stack;
    unsigned char *inleft = sc->inleft, *seen = sc->seen;

    if (m >= d) {
        m = d;
        for (ip f = 0; f < d; f++)
            feats[f] = f;
    }

    feature[0] = left[0] = right[0] = -1;
    threshold[0] = 0.0;
    ip n_nodes = 1;
    ip sp = 0;
    stack[sp++] = (frame){0, 0, n};
    while (sp > 0) {
        const frame fr = stack[--sp];
        const ip node = fr.node, start = fr.start, k = fr.k;
        const ip *idx = order + d * n + start; /* ascending sample ids */

        for (ip i = 0; i < k; i++)
            ybuf[i] = y[idx[i]];
        const double s = repro_sum(ybuf, k);
        const double q = repro_sumsq(ddot, ilp64, ybuf, k);
        const double mean = s / (double)k;
        value[node] = mean;
        const double var = q / (double)k - mean * mean;
        variance[node] = var > 0.0 ? var : 0.0;
        count[node] = k;
        double imp = q - s * s / (double)k;
        if (imp < 0.0)
            imp = 0.0;
        impurity[node] = imp;

        if (k < 2 || imp <= 1e-12)
            continue;
        if (m < d)
            repro_choice(bg, d, m, feats, seen);

        /* Best split over the candidate rows. */
        int found = 0;
        double best = 0.0;
        ip best_pos = 0, best_col = 0;
        double best_tot_s = 0.0, best_tot_q = 0.0;
        for (ip col = 0; col < m; col++) {
            const ip f = feats[col];
            const ip *ordf = order + f * n + start;
            const double *Xf = XT + f * n;

            /* Sequential totals == csum[-1]/csq[-1] of the reference. */
            double tot_s = 0.0;
            double tot_q = 0.0;
            for (ip i = 0; i < k; i++) {
                const double yv = y[ordf[i]];
                const double sq = yv * yv;
                tot_s = tot_s + yv;
                tot_q = tot_q + sq;
            }

            /* Stream the prefixes; candidate split position i in [1, k)
             * keeps the first i sorted samples on the left and is valid
             * only where the sorted feature value changes. */
            double acc_s = 0.0;
            double acc_q = 0.0;
            for (ip i = 1; i < k; i++) {
                const double yv = y[ordf[i - 1]];
                const double sq = yv * yv;
                acc_s = acc_s + yv;
                acc_q = acc_q + sq;
                const double f_lo = Xf[ordf[i - 1]];
                const double f_hi = Xf[ordf[i]];
                if (f_hi == f_lo)
                    continue;
                /* combined = (q_l - s_l*s_l/n_l) + (q_r - s_r*s_r/n_r),
                 * evaluated in the reference's exact operation order. */
                const double nl = (double)i;
                const double nr = (double)k - nl;
                double t = acc_s * acc_s;
                t = t / nl;
                const double left_sse = acc_q - t;
                const double sr = tot_s - acc_s;
                double u = sr * sr;
                u = u / nr;
                const double qr = tot_q - acc_q;
                const double right_sse = qr - u;
                const double comb = left_sse + right_sse;
                /* First minimum in (position, column) order == np.argmin
                 * over the reference (n_candidates, m) block. */
                if (!found || comb < best || (comb == best && i < best_pos)) {
                    found = 1;
                    best = comb;
                    best_pos = i;
                    best_col = col;
                    best_tot_s = tot_s;
                    best_tot_q = tot_q;
                }
            }
        }
        if (!found)
            continue;
        /* Gain test: node_sse = total_sq - total_sum ** 2 / k. */
        const double node_sse =
            best_tot_q - pow(fabs(best_tot_s), square_exponent) / (double)k;
        if (node_sse - best <= 1e-12)
            continue;

        const ip f = feats[best_col];
        const ip *ordf = order + f * n + start;
        const double *Xf = XT + f * n;
        const double lo_val = Xf[ordf[best_pos - 1]];
        const double hi_val = Xf[ordf[best_pos]];
        double thr = 0.5 * (lo_val + hi_val);
        /* Midpoints of adjacent floats can collapse onto the upper value;
         * the left side must satisfy value <= thr < upper value. */
        if (!(lo_val <= thr && thr < hi_val))
            thr = lo_val;
        ip n_left = 0;
        for (ip i = 0; i < k; i++) {
            inleft[idx[i]] = (Xf[idx[i]] <= thr);
            n_left += inleft[idx[i]];
        }
        /* Mirrors best_split's degenerate-threshold guard. */
        if (n_left == 0 || n_left == k) {
            for (ip i = 0; i < k; i++)
                inleft[idx[i]] = 0;
            continue;
        }

        feature[node] = f;
        threshold[node] = thr;
        const ip li = n_nodes;
        n_nodes += 2;
        for (ip c = li; c < n_nodes; c++) {
            feature[c] = left[c] = right[c] = -1;
            threshold[c] = 0.0;
        }
        left[node] = base + li;
        right[node] = base + li + 1;

        for (ip r = 0; r <= d; r++) {
            ip *seg = order + r * n + start;
            ip *dst = seg;
            ip n_right = 0;
            for (ip i = 0; i < k; i++) {
                const ip v = seg[i];
                if (inleft[v])
                    *dst++ = v;
                else
                    tmp[n_right++] = v;
            }
            memcpy(dst, tmp, (size_t)n_right * sizeof(ip));
        }
        /* Row d is partitioned now, so its left block lists the left ids. */
        for (ip i = 0; i < n_left; i++)
            inleft[idx[i]] = 0;

        stack[sp++] = (frame){li, start, n_left};
        stack[sp++] = (frame){li + 1, start + n_left, k - n_left};
    }
    return n_nodes;
}

/* Generator.integers(0, n, size=n) into out[0..n): numpy's
 * random_bounded_uint64_fill draws every entry with the Lemire routine
 * `bounded` reproduces (so n <= 2**32, which _cgrower checks), and draws
 * nothing when n == 1. */
void repro_bootstrap(bitgen_t *bg, ip n, ip *out)
{
    for (ip j = 0; j < n; j++)
        out[j] = bounded(bg, (uint64_t)(n - 1));
}

/* Grow n_trees presorted CART trees straight into the packed layout.
 *
 * `XT` is the (d, n) transposed training matrix, `y` its targets and
 * `rank` the (d, n) dense ranks of each feature's values: equal values
 * (-0.0 and 0.0 included) share a rank, and ranks lie in [0, n).  For
 * each tree in turn:
 *
 *  - the sample idx is a bootstrap drawn on `bg` exactly as
 *    Generator.integers(0, n, size=n) draws it;
 *  - the sample's columns and targets are gathered;
 *  - each feature's row of `order` is a counting sort of the sample
 *    positions j by rank[f, idx[j]], visiting j in ascending order, so it
 *    is stable and equals np.argsort(kind="stable") of the sample's
 *    feature; row d holds 0..n-1;
 *  - grow_tree grows the tree, drawing m features per split (every
 *    feature when m >= d), into ids [offsets[t], offsets[t+1]) of the two
 *    (4, cap) node blocks, cap >= n_trees * (2n - 1).
 *
 * The generator sees the draws of a Python loop that draws one bootstrap
 * and grows one tree at a time, in the same order.  `offsets` receives
 * n_trees + 1 entries.  Returns the total node count, or -1 if scratch
 * allocation fails.
 */
ip repro_grow_forest(const double *XT, const double *y, const ip *rank,
                     ip n, ip d, ip m, ip n_trees, bitgen_t *bg,
                     const void *ddot, ip ilp64, ip *inodes, double *fnodes,
                     ip cap, ip *offsets)
{
    const size_t nz = (size_t)n, dz = (size_t)d;
    ip *idx = malloc(nz * sizeof(ip));
    double *Xs = malloc((dz + 1) * nz * sizeof(double));
    double *ys = malloc(nz * sizeof(double));
    ip *order = malloc((dz + 1) * nz * sizeof(ip));
    ip *first = malloc((nz + 1) * sizeof(ip));
    const scratch_t sc = {
        malloc(nz * sizeof(double)), malloc(nz * sizeof(ip)),
        malloc(nz * sizeof(frame)), malloc((dz + 1) * sizeof(ip)),
        calloc(nz, 1), calloc(dz + 1, 1),
    };
    ip total = -1;
    if (!idx || !Xs || !ys || !order || !first || !sc.ybuf || !sc.tmp ||
        !sc.stack || !sc.feats || !sc.inleft || !sc.seen)
        goto done;

    offsets[0] = 0;
    for (ip t = 0; t < n_trees; t++) {
        repro_bootstrap(bg, n, idx);
        for (ip f = 0; f < d; f++) {
            const double *src = XT + f * n;
            double *dst = Xs + f * n;
            for (ip j = 0; j < n; j++)
                dst[j] = src[idx[j]];
        }
        for (ip j = 0; j < n; j++)
            ys[j] = y[idx[j]];

        for (ip f = 0; f < d; f++) {
            const ip *rf = rank + f * n;
            ip *row = order + f * n;
            memset(first, 0, (nz + 1) * sizeof(ip));
            for (ip j = 0; j < n; j++)
                first[rf[idx[j]] + 1]++;
            for (ip r = 1; r <= n; r++)
                first[r] += first[r - 1]; /* first[r]: positions ranked < r */
            for (ip j = 0; j < n; j++)
                row[first[rf[idx[j]]]++] = j;
        }
        for (ip j = 0; j < n; j++)
            order[d * n + j] = j;

        offsets[t + 1] = offsets[t] +
            grow_tree(Xs, ys, order, n, d, m, bg, ddot, ilp64, inodes, fnodes,
                      cap, offsets[t], &sc);
    }
    total = offsets[n_trees];

done:
    free(idx);
    free(Xs);
    free(ys);
    free(order);
    free(first);
    free(sc.ybuf);
    free(sc.tmp);
    free(sc.stack);
    free(sc.feats);
    free(sc.inleft);
    free(sc.seen);
    return total;
}
