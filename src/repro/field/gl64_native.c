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
 * (at the end) is the prover's whole constraint evaluator: one call runs a
 * register program keygen compiled, so a proof crosses into C twice for
 * its expressions, not once per expression node.
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
