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
 */
#include <stddef.h>
#include <stdint.h>

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
