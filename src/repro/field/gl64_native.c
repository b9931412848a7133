/* Goldilocks (p = 2^64 - 2^32 + 1) kernels behind repro/field/gl64.py.
 *
 * Built at first use by repro/field/native.py (`cc -O3 -shared -fPIC`) and
 * called through ctypes.  Inputs are canonical residues in [0, p); every
 * result is canonical, so outputs equal the numpy oracle in
 * tests/oracle.py bit for bit (tests/field/test_gl64_native.py).
 *
 * Every reduction is branchless: residues are random, so a conditional
 * correction (`if (s < a) s += EPS`) mispredicts half the time and the
 * NTT runs at 2x numpy instead of 7x.
 *
 * Besides the elementwise, NTT, inversion and row kernels, gl_eval_tape
 * is the prover's whole constraint evaluator: one call runs a register
 * program keygen compiled, so a proof crosses into C twice for its
 * expressions, not once per expression node.  gl_merkle_tree builds a
 * whole commit round's blake2b Merkle tree in one call.
 *
 * Two builds.  The three hottest kernels (the batched NTT, the tape and
 * the Merkle builder) are written once, in the lane section at the end of
 * this file, and compiled twice by including the file into itself: the
 * scalar build (LANES 1, the portable code every host runs) and, on
 * x86-64, an eight-lane build under target("avx512f,avx512vl,avx512dq")
 * that runs eight NTT rows, eight leaves or eight nodes abreast, each lane
 * loop one 512-bit vector operation.  There is no -march: the object may
 * outlive the CPU it was built on, so a constructor picks one build per
 * process from __builtin_cpu_supports (gl_lanes, 8 or 1).
 */
#ifndef LANES /* the first pass: everything but the lane kernels */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

#define P 0xFFFFFFFF00000001ULL
#define EPS 0xFFFFFFFFULL /* 2^64 mod p */

static inline u64 gl_canon(u64 r) { u64 t = r - P; return r < t ? r : t; }

/* a - b: a wrapping difference is short by 2^64 = EPS exactly when it borrowed */
static inline u64 gl_sub1(u64 a, u64 b) {
    return (a - b) - ((0 - (u64)(a < b)) & EPS);
}

/* a + b as a - (p - b): p - 0 = p always borrows and hands a back unchanged */
static inline u64 gl_add1(u64 a, u64 b) { return gl_sub1(a, P - b); }

/* x = hi*2^64 + lo  ==  lo + (hi mod 2^32)*EPS - (hi >> 32)   (2^96 = -1) */
static inline u64 gl_fold(u64 lo, u64 hi) {
    u64 t = gl_sub1(lo, hi >> 32);
    u64 m = ((hi & EPS) << 32) - (hi & EPS); /* (hi mod 2^32) * EPS */
    u64 r = t + m;
    r += (0 - (u64)(r < m)) & EPS;
    return gl_canon(r);
}

static inline u64 gl_mul1(u64 a, u64 b) {
    u128 x = (u128)a * b;
    return gl_fold((u64)x, (u64)(x >> 64));
}

/* gl_mul1 with the 128-bit product built from four 32x32-bit ones, carry
 * free: the form GCC turns into vpmuludq lanes (the u128 one stays scalar) */
static inline u64 gl_mul_limbs(u64 a, u64 b) {
    u64 a0 = a & EPS, a1 = a >> 32, b0 = b & EPS, b1 = b >> 32;
    u64 ll = a0 * b0;
    u64 t = a1 * b0 + (ll >> 32);      /* < 2^64 */
    u64 u = a0 * b1 + (t & EPS);       /* < 2^64 */
    u64 hi = a1 * b1 + (t >> 32) + (u >> 32);
    return gl_fold((u << 32) | (ll & EPS), hi);
}

static u64 gl_inv1(u64 a) { /* a^(p-2) */
    u64 r = 1, e = P - 2;
    for (; e; e >>= 1, a = gl_mul1(a, a))
        if (e & 1) r = gl_mul1(r, a);
    return r;
}

/* out[i][j] = a[i*ars + j*acs] (op) b[i*brs + j*bcs] over a contiguous
 * (rows, cols) out; strides are in elements and 0 broadcasts.  Each element
 * is read before its slot is written, so out may alias a full-shape operand. */
#define GL_EWISE(name, op)                                                   \
    void name(u64 *out, const u64 *a, ptrdiff_t ars, ptrdiff_t acs,          \
              const u64 *b, ptrdiff_t brs, ptrdiff_t bcs,                    \
              size_t rows, size_t cols) {                                    \
        for (size_t i = 0; i < rows; i++, out += cols, a += ars, b += brs)   \
            for (size_t j = 0; j < cols; j++)                                \
                out[j] = op(a[j * acs], b[j * bcs]);                         \
    }
GL_EWISE(gl_mul, gl_mul1)
GL_EWISE(gl_add, gl_add1)
GL_EWISE(gl_sub, gl_sub1)

/* Montgomery's trick in CHAINS chains abreast: the input is cut into CHAINS
 * contiguous segments (the last one runs on through the n % CHAINS tail),
 * so the multiplier has CHAINS independent products in flight instead of
 * one dependent chain.  out must not alias v.  Returns the index of the
 * first zero (out is then untouched) or -1. */
enum { CHAINS = 8 };
ptrdiff_t gl_batch_inv(u64 *out, const u64 *v, size_t n) {
    for (size_t i = 0; i < n; i++)
        if (!v[i]) return (ptrdiff_t)i;
    size_t seg = n / CHAINS, tail = CHAINS * seg;
    u64 acc[CHAINS], pre[CHAINS], inv = 1;
    for (int c = 0; c < CHAINS; c++) acc[c] = 1;
    for (size_t i = 0; i < seg; i++)
        for (int c = 0; c < CHAINS; c++) {
            out[c * seg + i] = acc[c];
            acc[c] = gl_mul1(acc[c], v[c * seg + i]);
        }
    for (size_t i = tail; i < n; i++) {
        out[i] = acc[CHAINS - 1];
        acc[CHAINS - 1] = gl_mul1(acc[CHAINS - 1], v[i]);
    }
    /* the chain totals' inverses, by the same trick: one inversion */
    for (int c = 0; c < CHAINS; c++) {
        pre[c] = inv;
        inv = gl_mul1(inv, acc[c]);
    }
    inv = gl_inv1(inv);
    for (int c = CHAINS; c-- > 0;) {
        u64 total = acc[c];
        acc[c] = gl_mul1(pre[c], inv);
        inv = gl_mul1(inv, total);
    }
    for (size_t i = n; i-- > tail;) {
        out[i] = gl_mul1(out[i], acc[CHAINS - 1]);
        acc[CHAINS - 1] = gl_mul1(acc[CHAINS - 1], v[i]);
    }
    for (size_t i = seg; i-- > 0;)
        for (int c = 0; c < CHAINS; c++) {
            out[c * seg + i] = gl_mul1(out[c * seg + i], acc[c]);
            acc[c] = gl_mul1(acc[c], v[c * seg + i]);
        }
    return -1;
}

/* out[j] = sum_i w[i] * rows[i][j] over a contiguous (m, width) matrix */
void gl_weighted_sum(u64 *out, const u64 *rows, const u64 *w,
                     size_t m, size_t width) {
    for (size_t j = 0; j < width; j++) out[j] = 0;
    for (size_t i = 0; i < m; i++, rows += width) {
        u64 wi = w[i];
        for (size_t j = 0; j < width; j++)
            out[j] = gl_add1(out[j], gl_mul1(rows[j], wi));
    }
}

/* out[i] = coeffs[i](points[i]) by Horner over a contiguous (m, width)
 * matrix, HORNER_ROWS rows abreast: one row is a single dependent chain, a
 * few independent ones keep the multiplier busy (2.8x at width 4096). */
enum { HORNER_ROWS = 4 };
void gl_poly_eval_rows(u64 *out, const u64 *coeffs, const u64 *points,
                       size_t m, size_t width) {
    for (size_t i = 0; i < m; i += HORNER_ROWS, coeffs += HORNER_ROWS * width) {
        size_t rows = m - i < HORNER_ROWS ? m - i : HORNER_ROWS;
        u64 acc[HORNER_ROWS] = {0};
        for (size_t j = width; j-- > 0;)
            for (size_t l = 0; l < rows; l++)
                acc[l] = gl_add1(gl_mul1(acc[l], points[i + l]),
                                 coeffs[l * width + j]);
        for (size_t l = 0; l < rows; l++) out[i + l] = acc[l];
    }
}

/* The constraint tape's opcodes and row block (gl_eval_tape, below). */
enum { TAPE_LOAD, TAPE_ADD, TAPE_SUB, TAPE_MUL, TAPE_NEG, TAPE_STORE };
enum { TAPE_ROWS = 512 };

/* one loop per operand shape: vector-vector, vector-scalar, scalar-vector */
#define TAPE_BINARY(op)                                             \
    do {                                                            \
        u64 x = *a, y = *b;                                         \
        if (as && bs)                                               \
            for (size_t j = 0; j < len; j++) o[j] = op(a[j], b[j]); \
        else if (as)                                                \
            for (size_t j = 0; j < len; j++) o[j] = op(a[j], y);    \
        else                                                        \
            for (size_t j = 0; j < len; j++) o[j] = op(x, b[j]);    \
    } while (0)

/* blake2b-256 (RFC 7693) with a 16-byte `person`, no key, no salt, for the
 * prover's Merkle trees.  repro/commit/merkle.py hashes the same trees with
 * hashlib when this object is not loaded, and the verifier always
 * re-hashes opened paths with hashlib. */
static const u64 B2B_IV[8] = {
    0x6A09E667F3BCC908ULL, 0xBB67AE8584CAA73BULL, 0x3C6EF372FE94F82BULL,
    0xA54FF53A5F1D36F1ULL, 0x510E527FADE682D1ULL, 0x9B05688C2B3E6C1FULL,
    0x1F83D9ABFB41BD6BULL, 0x5BE0CD19137E2179ULL};
static const uint8_t B2B_SIGMA[12][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3}};

static inline u64 load64(const uint8_t *p) { /* little-endian on any host */
    return (u64)p[0] | (u64)p[1] << 8 | (u64)p[2] << 16 | (u64)p[3] << 24 |
           (u64)p[4] << 32 | (u64)p[5] << 40 | (u64)p[6] << 48 | (u64)p[7] << 56;
}

static inline u64 rotr64(u64 x, int n) { return (x >> n) | (x << (64 - n)); }

/* G and a round on LANES working vectors abreast, word i of lane l's at
 * v[i][l] and its message word k at block[k][l] */
#define B2B_G(a, b, c, d, x, y)                                        \
    for (size_t l = 0; l < LANES; l++) {                               \
        v[a][l] += v[b][l] + block[x][l];                              \
        v[d][l] = rotr64(v[d][l] ^ v[a][l], 32);                       \
        v[c][l] += v[d][l];                                            \
        v[b][l] = rotr64(v[b][l] ^ v[c][l], 24);                       \
        v[a][l] += v[b][l] + block[y][l];                              \
        v[d][l] = rotr64(v[d][l] ^ v[a][l], 16);                       \
        v[c][l] += v[d][l];                                            \
        v[b][l] = rotr64(v[b][l] ^ v[c][l], 63);                       \
    }
#define B2B_ROUND(r)                                                   \
    do {                                                               \
        const uint8_t *s = B2B_SIGMA[r];                               \
        B2B_G(0, 4, 8, 12, s[0], s[1]);                                \
        B2B_G(1, 5, 9, 13, s[2], s[3]);                                \
        B2B_G(2, 6, 10, 14, s[4], s[5]);                               \
        B2B_G(3, 7, 11, 15, s[6], s[7]);                               \
        B2B_G(0, 5, 10, 15, s[8], s[9]);                               \
        B2B_G(1, 6, 11, 12, s[10], s[11]);                             \
        B2B_G(2, 7, 8, 13, s[12], s[13]);                              \
        B2B_G(3, 4, 9, 14, s[14], s[15]);                              \
    } while (0)

/* the state after the parameter block: 32-byte digest, no key, `person` */
static void b2b_init(u64 h[8], const uint8_t person[16]) {
    for (int i = 0; i < 8; i++) h[i] = B2B_IV[i];
    h[0] ^= 0x01010000ULL | 32;
    h[6] ^= load64(person);
    h[7] ^= load64(person + 8);
}

/* The lane kernels, twice.  Each pass sees LANES, the lane multiply
 * LANE_MUL and the function attribute LANE_FN; the eight-lane pass renames
 * its functions *_x8.  A compiler that cannot build the clone (an older
 * GCC, a host that is not x86-64) gives the scalar build alone. */
#define LANES 1
#define LANE_MUL gl_mul1
#define LANE_FN
#include __FILE__
#undef LANES
#undef LANE_MUL
#undef LANE_FN

#if defined(__x86_64__) && (defined(__clang__) || __GNUC__ >= 8)
#define GL_LANE_BUILD 1
#define LANES 8
#define LANE_MUL gl_mul_limbs
#define LANE_FN __attribute__((target("avx512f,avx512vl,avx512dq")))
#define ntt_rows ntt_rows_x8
#define eval_tape eval_tape_x8
#define b2b_compress b2b_compress_x8
#define b2b_many b2b_many_x8
#include __FILE__
#undef ntt_rows
#undef eval_tape
#undef b2b_compress
#undef b2b_many
#else
#define GL_LANE_BUILD 0
#endif

/* The build this process runs: 8 for the eight-lane one, else 1.  Chosen
 * once, below; repro/field/native.py sets it to 1 to test the scalar
 * build on a CPU that has both. */
int gl_lanes = 1;

#if GL_LANE_BUILD
__attribute__((constructor)) static void gl_pick_lanes(void) {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq"))
        gl_lanes = 8;
}
#endif

/* m independent size-n radix-2 NTTs (ntt_rows, below).  On the eight-lane
 * build the rows go eight abreast through an (n, 8) buffer; the m % 8 rows
 * left over, a single row and a failed allocation take the scalar build. */
void gl_ntt(u64 *out, const u64 *src, ptrdiff_t srs, ptrdiff_t scs,
            size_t m, size_t n, const int64_t *rev, const u64 *tw,
            const u64 *scale, ptrdiff_t sstride) {
    size_t done = 0;
#if GL_LANE_BUILD
    u64 *buf;
    if (gl_lanes == 8 && m >= 8 && (buf = malloc(8 * n * sizeof *buf))) {
        done = m - m % 8;
        ntt_rows_x8(out, src, srs, scs, done, n, rev, tw, scale, sstride, buf);
        free(buf);
    }
#endif
    ntt_rows(out + done * n, src + (ptrdiff_t)done * srs, srs, scs, m - done, n,
             rev, tw, scale, sstride, NULL);
}

int gl_eval_tape(u64 *out, const u64 *const *cols, size_t parts, size_t n,
                 const int32_t *code, size_t ninstr, size_t nregs,
                 const u64 *scalars, const u64 *scale) {
#if GL_LANE_BUILD
    if (gl_lanes == 8)
        return eval_tape_x8(out, cols, parts, n, code, ninstr, nregs, scalars, scale);
#endif
    return eval_tape(out, cols, parts, n, code, ninstr, nregs, scalars, scale);
}

/* blake2b-256 of count messages of len bytes back to back: eight abreast
 * on the eight-lane build, the count % 8 left over on the scalar one */
static void hash_many(uint8_t *out, const u64 h0[8], const uint8_t *data,
                      size_t count, size_t len) {
    size_t done = 0;
#if GL_LANE_BUILD
    if (gl_lanes == 8) {
        done = count - count % 8;
        b2b_many_x8(out, h0, data, done, len);
    }
#endif
    b2b_many(out + 32 * done, h0, data + len * done, count - done, len);
}

/* A whole Merkle tree into out, a (2 * padded - 1, 32) node array, leaf
 * level first and the root last: `count` leaves of `leaf_len` bytes back to
 * back, hashed under leaf_person, then padded - count copies of the empty
 * leaf's digest, then every level upward, node j of a level the hash under
 * node_person of its two children (64 contiguous bytes of the level below).
 * padded is a power of two >= count >= 1. */
void gl_merkle_tree(uint8_t *out, const uint8_t *leaves, size_t count,
                    size_t leaf_len, size_t padded, const uint8_t *leaf_person,
                    const uint8_t *node_person) {
    u64 leaf0[8], node0[8];
    b2b_init(leaf0, leaf_person);
    b2b_init(node0, node_person);
    hash_many(out, leaf0, leaves, count, leaf_len);
    if (padded > count) {
        b2b_many(out + 32 * count, leaf0, leaves, 1, 0);
        for (size_t i = count + 1; i < padded; i++)
            memcpy(out + 32 * i, out + 32 * count, 32);
    }
    const uint8_t *level = out;
    for (size_t width = padded; width > 1; width >>= 1) {
        uint8_t *next = (uint8_t *)level + 32 * width;
        hash_many(next, node0, level, width / 2, 64);
        level = next;
    }
}

#else /* LANES: the lane kernels, compiled once per build */

/* m independent size-n radix-2 NTTs, m a multiple of LANES.  Row r is
 * gathered from src[r*srs + rev[i]*scs] (times scale[i*sstride] when scale
 * is given: sstride 1 for a per-index vector, 0 for one scalar), then taken
 * through every stage.  tw packs the stage tables back to back: the 2^s
 * twiddles of the stage with butterfly span 2^s start at tw[2^s - 1].
 * LANES rows go abreast, row r + l in lane l of x: element i at
 * x[i * LANES + l], so each butterfly is one LANES-wide operation under one
 * twiddle.  x is buf, scattered back to out afterwards, or with LANES 1 the
 * out row itself. */
LANE_FN static void ntt_rows(u64 *out, const u64 *src, ptrdiff_t srs, ptrdiff_t scs,
                             size_t m, size_t n, const int64_t *rev, const u64 *tw,
                             const u64 *scale, ptrdiff_t sstride, u64 *buf) {
    for (size_t r = 0; r < m; r += LANES, out += LANES * n, src += LANES * srs) {
        u64 *x = LANES == 1 ? out : buf;
        for (size_t i = 0; i < n; i++) {
            const u64 *s = src + rev[i] * scs;
            if (scale)
                for (ptrdiff_t l = 0; l < LANES; l++)
                    x[i * LANES + l] = LANE_MUL(s[l * srs], scale[i * sstride]);
            else
                for (ptrdiff_t l = 0; l < LANES; l++) x[i * LANES + l] = s[l * srs];
        }
        for (u64 *y = x; y + LANES < x + n * LANES; y += 2 * LANES)
            for (size_t l = 0; l < LANES; l++) { /* span 1: twiddle is 1 */
                u64 u = y[l], v = y[LANES + l];
                y[l] = gl_add1(u, v);
                y[LANES + l] = gl_sub1(u, v);
            }
        for (size_t half = 2; half < n; half <<= 1) {
            const u64 *w = tw + (half - 1);
            for (u64 *y = x; y < x + n * LANES; y += 2 * half * LANES)
                for (size_t j = 0; j < half; j++) {
                    u64 *lo = y + j * LANES, *hi = lo + half * LANES;
                    for (size_t l = 0; l < LANES; l++) {
                        u64 u = lo[l], v = LANE_MUL(hi[l], w[j]);
                        lo[l] = gl_add1(u, v);
                        hi[l] = gl_sub1(u, v);
                    }
                }
        }
        if (LANES > 1)
            for (size_t i = 0; i < n; i++)
                for (size_t l = 0; l < LANES; l++)
                    out[l * n + i] = x[i * LANES + l];
    }
}

/* The prover's constraint evaluator.  repro/halo2/tape.py compiles the
 * constraint expressions once, at keygen, into four-word instructions
 *     LOAD  reg slot rot    reg <- column `slot` at row t + rot (cyclic)
 *     ADD / SUB / MUL reg a b   reg <- a (op) b
 *     NEG   reg a           reg <- -a
 *     STORE row a           out row `row` <- a, times scale[part] if given
 * where an operand >= 0 names a register and x < 0 is scalars[-1 - x].
 * Each column holds `parts` runs of n values back to back and rotations are
 * cyclic within a run (a coset part); output row i holds part r of row t at
 * i * n * parts + t * parts + r, the extended coset's natural order.  Rows go
 * TAPE_ROWS at a time through the whole tape, so the register file is
 * nregs * TAPE_ROWS words at any n; a LOAD that does not wrap points its
 * register into the column instead of copying.  The row loops are the lane
 * loops here.  Returns 0, or -1 when the register file cannot be
 * allocated. */
LANE_FN static int eval_tape(u64 *out, const u64 *const *cols, size_t parts, size_t n,
                             const int32_t *code, size_t ninstr, size_t nregs,
                             const u64 *scalars, const u64 *scale) {
    size_t rows = n < TAPE_ROWS ? n : TAPE_ROWS;
    u64 *file = malloc((nregs * rows + 1) * sizeof *file);
    const u64 **reg = malloc((nregs + 1) * sizeof *reg);
    if (!file || !reg) {
        free(file);
        free(reg);
        return -1;
    }
    for (size_t r = 0; r < parts; r++)
        for (size_t t0 = 0; t0 < n; t0 += rows) {
            size_t len = n - t0 < rows ? n - t0 : rows;
            for (const int32_t *ins = code; ins < code + 4 * ninstr; ins += 4) {
                int op = ins[0];
                if (op == TAPE_LOAD) {
                    const u64 *col = cols[ins[2]] + r * n;
                    size_t start = (t0 + (size_t)ins[3]) % n, head = n - start;
                    u64 *o = file + (size_t)ins[1] * rows;
                    if (len <= head) {
                        reg[ins[1]] = col + start;
                    } else {
                        memcpy(o, col + start, head * sizeof *o);
                        memcpy(o + head, col, (len - head) * sizeof *o);
                        reg[ins[1]] = o;
                    }
                    continue;
                }
                /* as / bs: 1 for a register, 0 (a broadcast) for a scalar */
                size_t as = ins[2] >= 0;
                const u64 *a = as ? reg[ins[2]] : scalars + (-1 - (ptrdiff_t)ins[2]);
                if (op == TAPE_STORE) {
                    u64 *dst = out + (size_t)ins[1] * n * parts + t0 * parts + r;
                    if (scale)
                        for (size_t j = 0; j < len; j++)
                            dst[j * parts] = LANE_MUL(a[j * as], scale[r]);
                    else
                        for (size_t j = 0; j < len; j++) dst[j * parts] = a[j * as];
                    continue;
                }
                u64 *o = file + (size_t)ins[1] * rows;
                if (op == TAPE_NEG) {
                    for (size_t j = 0; j < len; j++) o[j] = gl_sub1(0, a[j * as]);
                } else {
                    size_t bs = ins[3] >= 0;
                    const u64 *b = bs ? reg[ins[3]] : scalars + (-1 - (ptrdiff_t)ins[3]);
                    if (op == TAPE_ADD) TAPE_BINARY(gl_add1);
                    else if (op == TAPE_SUB) TAPE_BINARY(gl_sub1);
                    else TAPE_BINARY(LANE_MUL);
                }
                reg[ins[1]] = o;
            }
        }
    free(file);
    free(reg);
    return 0;
}

/* blake2b's compression F on LANES states abreast, word i of lane l's
 * state at h[i][l] and of its message block at block[i][l].  `t` is the
 * byte count so far (< 2^64 here) and `last` the final-block flag, one for
 * all lanes: the messages hashed together have one length. */
LANE_FN static void b2b_compress(u64 h[8][LANES], const u64 block[16][LANES],
                                 u64 t, int last) {
    u64 v[16][LANES];
    for (int i = 0; i < 8; i++)
        for (size_t l = 0; l < LANES; l++) v[i][l] = h[i][l], v[i + 8][l] = B2B_IV[i];
    for (size_t l = 0; l < LANES; l++) {
        v[12][l] ^= t;
        v[14][l] ^= 0 - (u64)last;
    }
    B2B_ROUND(0); B2B_ROUND(1); B2B_ROUND(2); B2B_ROUND(3);
    B2B_ROUND(4); B2B_ROUND(5); B2B_ROUND(6); B2B_ROUND(7);
    B2B_ROUND(8); B2B_ROUND(9); B2B_ROUND(10); B2B_ROUND(11);
    for (int i = 0; i < 8; i++)
        for (size_t l = 0; l < LANES; l++) h[i][l] ^= v[i][l] ^ v[i + 8][l];
}

/* out[32i : 32i + 32] <- blake2b-256(data[len*i : len*(i + 1)]) from the
 * initial state h0, for i < count, a multiple of LANES: LANES messages
 * abreast, lane l hashing message g + l */
LANE_FN static void b2b_many(uint8_t *out, const u64 h0[8], const uint8_t *data,
                             size_t count, size_t len) {
    for (size_t g = 0; g < count; g += LANES, data += LANES * len, out += 32 * LANES) {
        u64 h[8][LANES], block[16][LANES];
        uint8_t tail[LANES][128];
        for (int i = 0; i < 8; i++)
            for (size_t l = 0; l < LANES; l++) h[i][l] = h0[i];
        size_t done = 0;
        for (; len - done > 128; done += 128) {
            for (int i = 0; i < 16; i++)
                for (size_t l = 0; l < LANES; l++)
                    block[i][l] = load64(data + l * len + done + 8 * i);
            b2b_compress(h, block, done + 128, 0);
        }
        memset(tail, 0, sizeof tail);
        for (size_t l = 0; l < LANES; l++)
            memcpy(tail[l], data + l * len + done, len - done);
        for (int i = 0; i < 16; i++)
            for (size_t l = 0; l < LANES; l++) block[i][l] = load64(tail[l] + 8 * i);
        b2b_compress(h, block, len, 1);
        for (size_t l = 0; l < LANES; l++)
            for (int i = 0; i < 32; i++)
                out[32 * l + i] = (uint8_t)(h[i / 8][l] >> (8 * (i % 8)));
    }
}

#endif /* LANES */
