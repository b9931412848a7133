/* Goldilocks (p = 2^64 - 2^32 + 1) kernels behind repro/field/gl64.py.
 *
 * Built at first use by repro/field/native.py (`cc -O2 -shared -fPIC`) and
 * called through ctypes.  Inputs are canonical residues in [0, p); every
 * result is canonical, so outputs equal the numpy bodies in gl64.py bit
 * for bit (tests/field/test_gl64_native.py).
 *
 * Every reduction is branchless: residues are random, so a conditional
 * correction (`if (s < a) s += EPS`) mispredicts half the time and the
 * NTT runs at 2x numpy instead of 7x.
 *
 * Besides the elementwise, NTT, inversion and row kernels, gl_eval_tape
 * is the prover's whole constraint evaluator: one call runs a register
 * program keygen compiled, so a proof crosses into C twice for its
 * expressions, not once per expression node.  gl_merkle_tree (at the end)
 * builds a whole commit round's blake2b Merkle tree in one call.
 */
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
static inline u64 gl_mul1(u64 a, u64 b) {
    u128 x = (u128)a * b;
    u64 lo = (u64)x, hi = (u64)(x >> 64);
    u64 t = gl_sub1(lo, hi >> 32);
    u64 m = (hi & EPS) * EPS;
    u64 r = t + m;
    r += (0 - (u64)(r < m)) & EPS;
    return gl_canon(r);
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

/* m independent size-n radix-2 NTTs.  Row r is gathered from
 * src[r*srs + rev[i]*scs] (times scale[i*sstride] when scale is given:
 * sstride 1 for a per-index vector, 0 for one scalar), then taken through
 * every stage in place.  tw packs the stage tables back to back: the 2^s
 * twiddles of the stage with butterfly span 2^s start at tw[2^s - 1]. */
void gl_ntt(u64 *out, const u64 *src, ptrdiff_t srs, ptrdiff_t scs,
            size_t m, size_t n, const int64_t *rev, const u64 *tw,
            const u64 *scale, ptrdiff_t sstride) {
    for (size_t r = 0; r < m; r++, out += n, src += srs) {
        if (scale)
            for (size_t i = 0; i < n; i++)
                out[i] = gl_mul1(src[rev[i] * scs], scale[i * sstride]);
        else
            for (size_t i = 0; i < n; i++)
                out[i] = src[rev[i] * scs];
        for (size_t i = 0; i + 1 < n; i += 2) { /* span 1: twiddle is 1 */
            u64 u = out[i], v = out[i + 1];
            out[i] = gl_add1(u, v);
            out[i + 1] = gl_sub1(u, v);
        }
        for (size_t half = 2; half < n; half <<= 1) {
            const u64 *w = tw + (half - 1);
            for (u64 *x = out; x < out + n; x += 2 * half)
                for (size_t j = 0; j < half; j++) {
                    u64 u = x[j], v = gl_mul1(x[j + half], w[j]);
                    x[j] = gl_add1(u, v);
                    x[j + half] = gl_sub1(u, v);
                }
        }
    }
}

/* Montgomery's trick, sequentially; out must not alias v.  Returns the index
 * of the first zero (out is then untouched) or -1. */
ptrdiff_t gl_batch_inv(u64 *out, const u64 *v, size_t n) {
    for (size_t i = 0; i < n; i++)
        if (!v[i]) return (ptrdiff_t)i;
    u64 acc = 1;
    for (size_t i = 0; i < n; i++) {
        out[i] = acc;
        acc = gl_mul1(acc, v[i]);
    }
    acc = gl_inv1(acc);
    for (size_t i = n; i-- > 0;) {
        out[i] = gl_mul1(out[i], acc);
        acc = gl_mul1(acc, v[i]);
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
 * matrix, LANES rows abreast: one row is a single dependent chain, a few
 * independent ones keep the multiplier busy (2.8x at width 4096). */
enum { LANES = 4 };
void gl_poly_eval_rows(u64 *out, const u64 *coeffs, const u64 *points,
                       size_t m, size_t width) {
    for (size_t i = 0; i < m; i += LANES, coeffs += LANES * width) {
        size_t lanes = m - i < LANES ? m - i : LANES;
        u64 acc[LANES] = {0};
        for (size_t j = width; j-- > 0;)
            for (size_t l = 0; l < lanes; l++)
                acc[l] = gl_add1(gl_mul1(acc[l], points[i + l]),
                                 coeffs[l * width + j]);
        for (size_t l = 0; l < lanes; l++) out[i + l] = acc[l];
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
 * register into the column instead of copying.  Returns 0, or -1 when the
 * register file cannot be allocated. */
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

int gl_eval_tape(u64 *out, const u64 *const *cols, size_t parts, size_t n,
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
                            dst[j * parts] = gl_mul1(a[j * as], scale[r]);
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
                    else TAPE_BINARY(gl_mul1);
                }
                reg[ins[1]] = o;
            }
        }
    free(file);
    free(reg);
    return 0;
}

/* blake2b-256 (RFC 7693) with a 16-byte `person`, no key, no salt, and the
 * prover's Merkle trees over it.  Portable C, no SIMD: the object may
 * outlive the CPU it was built on.  repro/commit/merkle.py hashes the same
 * trees with hashlib when this object is not loaded, and the verifier always
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

#define B2B_G(a, b, c, d, x, y)                         \
    do {                                                \
        v[a] += v[b] + (x); v[d] = rotr64(v[d] ^ v[a], 32); \
        v[c] += v[d];       v[b] = rotr64(v[b] ^ v[c], 24); \
        v[a] += v[b] + (y); v[d] = rotr64(v[d] ^ v[a], 16); \
        v[c] += v[d];       v[b] = rotr64(v[b] ^ v[c], 63); \
    } while (0)
#define B2B_ROUND(r)                                                         \
    do {                                                                     \
        const uint8_t *s = B2B_SIGMA[r];                                     \
        B2B_G(0, 4, 8, 12, m[s[0]], m[s[1]]);                                \
        B2B_G(1, 5, 9, 13, m[s[2]], m[s[3]]);                                \
        B2B_G(2, 6, 10, 14, m[s[4]], m[s[5]]);                               \
        B2B_G(3, 7, 11, 15, m[s[6]], m[s[7]]);                               \
        B2B_G(0, 5, 10, 15, m[s[8]], m[s[9]]);                               \
        B2B_G(1, 6, 11, 12, m[s[10]], m[s[11]]);                             \
        B2B_G(2, 7, 8, 13, m[s[12]], m[s[13]]);                              \
        B2B_G(3, 4, 9, 14, m[s[14]], m[s[15]]);                              \
    } while (0)

/* the compression F: `t` is the byte count so far (< 2^64 here), `last`
 * the final-block flag */
static void b2b_compress(u64 h[8], const uint8_t block[128], u64 t, int last) {
    u64 m[16], v[16];
    for (int i = 0; i < 16; i++) m[i] = load64(block + 8 * i);
    for (int i = 0; i < 8; i++) v[i] = h[i], v[i + 8] = B2B_IV[i];
    v[12] ^= t;
    v[14] ^= 0 - (u64)last;
    B2B_ROUND(0); B2B_ROUND(1); B2B_ROUND(2); B2B_ROUND(3);
    B2B_ROUND(4); B2B_ROUND(5); B2B_ROUND(6); B2B_ROUND(7);
    B2B_ROUND(8); B2B_ROUND(9); B2B_ROUND(10); B2B_ROUND(11);
    for (int i = 0; i < 8; i++) h[i] ^= v[i] ^ v[i + 8];
}

/* the state after the parameter block: 32-byte digest, no key, `person` */
static void b2b_init(u64 h[8], const uint8_t person[16]) {
    for (int i = 0; i < 8; i++) h[i] = B2B_IV[i];
    h[0] ^= 0x01010000ULL | 32;
    h[6] ^= load64(person);
    h[7] ^= load64(person + 8);
}

/* out <- blake2b-256(data[0:len]) from the initial state h0 */
static void b2b_hash(uint8_t out[32], const u64 h0[8], const uint8_t *data,
                     size_t len) {
    u64 h[8];
    uint8_t block[128];
    memcpy(h, h0, sizeof h);
    size_t done = 0;
    for (; len - done > 128; done += 128)
        b2b_compress(h, data + done, done + 128, 0);
    memset(block, 0, sizeof block);
    memcpy(block, data + done, len - done);
    b2b_compress(h, block, len, 1);
    for (int i = 0; i < 32; i++) out[i] = (uint8_t)(h[i / 8] >> (8 * (i % 8)));
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
    for (size_t i = 0; i < count; i++)
        b2b_hash(out + 32 * i, leaf0, leaves + leaf_len * i, leaf_len);
    if (padded > count) {
        b2b_hash(out + 32 * count, leaf0, leaves, 0);
        for (size_t i = count + 1; i < padded; i++)
            memcpy(out + 32 * i, out + 32 * count, 32);
    }
    const uint8_t *level = out;
    for (size_t width = padded; width > 1; width >>= 1) {
        uint8_t *next = (uint8_t *)level + 32 * width;
        for (size_t j = 0; j < width / 2; j++)
            b2b_hash(next + 32 * j, node0, level + 64 * j, 64);
        level = next;
    }
}
