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
 * whole commit round's blake2b Merkle tree in one call, its leaves read
 * from the round's LDE where they lie, and gl_hash_columns digests many
 * columns at once (the pk cache's integrity check).
 *
 * Two builds.  The hot kernels (the NTT, batch inversion, weighted sums,
 * Horner, the tape and the Merkle builder) are written once, in the lane
 * section at the end of this file, over a lane vector `vec` with inline
 * vload / vstore / vset1 / vadd / vsub / vmul, and compiled twice by
 * including the file into itself: the scalar build (LANES 1, vec a u64,
 * the portable code every host runs) and, on x86-64, an eight-lane build
 * under target("avx512f") where vec is a __m512i and vmul builds the
 * 128-bit product from four vpmuludq (gl_mul_x8).  An NTT row runs eight
 * wide along itself, a weighted sum eight columns abreast, an inversion
 * eight chains a vector, Horner eight sub-polynomials in x^8, blake2b eight
 * messages abreast.  There is no -march: the object may outlive the CPU it
 * was built on, so a constructor picks one build per process from
 * __builtin_cpu_supports (gl_lanes, 8 or 1).
 *
 * Threads.  The NTT, Merkle, column-digest, tape, weighted-sum, Horner
 * and inversion entry points fork-join: a call splits its independent
 * rows, leaves, row blocks or columns over up to gl_threads POSIX threads,
 * runs one chunk on the calling thread and joins the rest before it
 * returns (fork_join, below).  Each output is computed the way one thread
 * computes it, so results do not depend on the thread count.
 */
#ifndef LANES /* the first pass: everything but the lane kernels */
#define _GNU_SOURCE /* sched_getcpu, pthread_attr_setaffinity_np */
#include <pthread.h>
#include <sched.h>
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

/* out[i] = first * ratio^i for i < n: the power tables and NTT twiddles.
 * Eight chains a stride apart, each stepping by ratio^8, so eight products
 * are in flight instead of one dependent chain. */
void gl_powers(u64 *out, u64 first, u64 ratio, size_t n) {
    u64 step = ratio;
    for (size_t i = 0; i < n && i < 8; i++)
        out[i] = i ? gl_mul1(out[i - 1], ratio) : first;
    for (int s = 0; s < 3; s++) step = gl_mul1(step, step);
    for (size_t i = 8; i < n; i++) out[i] = gl_mul1(out[i - 8], step);
}

/* Vectors of columns a weighted sum keeps in registers, rows Horner takes
 * abreast, and the tape's opcodes and row block (the lane kernels, below). */
enum { SUM_VECS = 4, HORNER_ROWS = 4 };
enum { TAPE_LOAD, TAPE_ADD, TAPE_SUB, TAPE_MUL, TAPE_NEG, TAPE_STORE };
enum { TAPE_ROWS = 512 };

/* o[j] = a[j*as] (op) b[j*bs] for j < len, LANES at a time and then the
 * tail; as / bs are 1 for a register, 0 for a broadcast scalar */
#define TAPE_BINARY(vop, op)                                                  \
    do {                                                                      \
        vec x = vset1(*a), y = vset1(*b);                                     \
        size_t j = 0;                                                         \
        for (; j + LANES <= len; j += LANES)                                  \
            vstore(o + j, vop(as ? vload(a + j) : x, bs ? vload(b + j) : y)); \
        for (; j < len; j++) o[j] = op(a[j * as], b[j * bs]);                 \
    } while (0)

/* blake2b-256 (RFC 7693) with a 16-byte `person`, no key, no salt, for the
 * prover's Merkle trees and the pk cache's column digests.  Only the prover
 * hashes here: the verifier re-hashes every opened path with hashlib, and
 * tests/oracle.py builds the same trees with hashlib to test this one. */
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

#if defined(__x86_64__) && (defined(__clang__) || __GNUC__ >= 8)
#define GL_LANE_BUILD 1
#include <immintrin.h>
#define X8 __attribute__((target("avx512f")))

/* gl_sub1, gl_add1 and gl_mul1 on eight lanes.  The product's four 32x32-bit
 * parts are vpmuludq, carry free, then the same fold as gl_fold; the only
 * 64-bit multiply AVX-512 has (vpmullq) is three micro-ops and is never
 * used. */
X8 static inline __m512i gl_sub_x8(__m512i a, __m512i b) {
    __m512i d = _mm512_sub_epi64(a, b);
    return _mm512_mask_sub_epi64(d, _mm512_cmplt_epu64_mask(a, b), d,
                                 _mm512_set1_epi64(EPS));
}

X8 static inline __m512i gl_add_x8(__m512i a, __m512i b) {
    return gl_sub_x8(a, _mm512_sub_epi64(_mm512_set1_epi64(P), b));
}

X8 static inline __m512i gl_mul_x8(__m512i a, __m512i b) {
    __m512i eps = _mm512_set1_epi64(EPS), p = _mm512_set1_epi64(P);
    __m512i ah = _mm512_srli_epi64(a, 32), bh = _mm512_srli_epi64(b, 32);
    __m512i ll = _mm512_mul_epu32(a, b), lh = _mm512_mul_epu32(a, bh);
    __m512i hl = _mm512_mul_epu32(ah, b), hh = _mm512_mul_epu32(ah, bh);
    __m512i t = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32)); /* < 2^64 */
    __m512i u = _mm512_add_epi64(lh, _mm512_and_si512(t, eps));  /* < 2^64 */
    hh = _mm512_add_epi64(hh, _mm512_srli_epi64(t, 32));
    __m512i hi = _mm512_add_epi64(hh, _mm512_srli_epi64(u, 32));
    /* lo = (u << 32) | (ll mod 2^32), m = (hi mod 2^32) * EPS as in gl_fold */
    __m512i lo = _mm512_ternarylogic_epi64(_mm512_slli_epi64(u, 32), ll, eps, 0xF8);
    __m512i m = _mm512_mul_epu32(hi, eps);
    __m512i r = _mm512_add_epi64(gl_sub_x8(lo, _mm512_srli_epi64(hi, 32)), m);
    r = _mm512_mask_add_epi64(r, _mm512_cmplt_epu64_mask(r, m), r, eps);
    return _mm512_mask_sub_epi64(r, _mm512_cmpge_epu64_mask(r, p), r, p);
}

/* the eight elements rev[0..7] of a row: src[rev[l] * scs], |scs| < 2^31 */
X8 static inline __m512i gl_gather_x8(const u64 *src, const int64_t *rev,
                                      ptrdiff_t scs) {
    __m512i i = _mm512_loadu_si512(rev);
    if (scs != 1) i = _mm512_mul_epi32(i, _mm512_set1_epi64(scs));
    return _mm512_i64gather_epi64(i, src, 8);
}

/* one butterfly over lo / hi vectors: (lo + w hi, lo - w hi) */
#define BFLY_X8(lo, hi, w)                                            \
    do {                                                              \
        __m512i v_ = gl_mul_x8(hi, w);                                \
        hi = gl_sub_x8(lo, v_);                                       \
        lo = gl_add_x8(lo, v_);                                       \
    } while (0)
#define PERM_X8(a, b, ...) _mm512_permutex2var_epi64(a, _mm512_setr_epi64(__VA_ARGS__), b)

/* The NTT stages of span 1, 2 and 4 on a row (n >= 16) in place, sixteen
 * elements a register pair at a time: each pair is split into the
 * butterflies' lo and hi halves, and permuted straight from one stage's
 * halves to the next one's. */
X8 static void ntt_spans_x8(u64 *x, size_t n, const u64 *tw) {
    __m512i w2 = _mm512_broadcast_i32x4(_mm_loadu_si128((const void *)(tw + 1)));
    __m512i w4 = _mm512_broadcast_i64x4(_mm256_loadu_si256((const void *)(tw + 3)));
    for (u64 *y = x; y < x + n; y += 16) {
        __m512i a = _mm512_loadu_si512(y), b = _mm512_loadu_si512(y + 8);
        __m512i lo = PERM_X8(a, b, 0, 2, 4, 6, 8, 10, 12, 14);
        __m512i hi = PERM_X8(a, b, 1, 3, 5, 7, 9, 11, 13, 15);
        __m512i v = hi; /* span 1: the twiddle is 1 */
        hi = gl_sub_x8(lo, v);
        lo = gl_add_x8(lo, v);
        a = PERM_X8(lo, hi, 0, 8, 2, 10, 4, 12, 6, 14);
        b = PERM_X8(lo, hi, 1, 9, 3, 11, 5, 13, 7, 15);
        BFLY_X8(a, b, w2); /* span 2 */
        lo = PERM_X8(a, b, 0, 1, 8, 9, 4, 5, 12, 13);
        hi = PERM_X8(a, b, 2, 3, 10, 11, 6, 7, 14, 15);
        BFLY_X8(lo, hi, w4); /* span 4 */
        _mm512_storeu_si512(y, _mm512_shuffle_i64x2(lo, hi, 0x44));
        _mm512_storeu_si512(y + 8, _mm512_shuffle_i64x2(lo, hi, 0xEE));
    }
}
#else
#define GL_LANE_BUILD 0
#endif

/* The lane kernels, twice.  Each pass sees LANES and the function
 * attribute LANE_FN; the eight-lane pass renames its functions *_x8.  A
 * compiler that cannot build the clone (an older GCC, a host that is not
 * x86-64) gives the scalar build alone. */
#define LANES 1
#define LANE_FN
#include __FILE__
#undef LANES
#undef LANE_FN

#if GL_LANE_BUILD
#define LANES 8
#define LANE_FN X8
#define ntt_rows ntt_rows_x8
#define batch_inv batch_inv_x8
#define weighted_sum weighted_sum_x8
#define poly_eval_rows poly_eval_rows_x8
#define eval_tape eval_tape_x8
#define b2b_compress b2b_compress_x8
#define b2b_many b2b_many_x8
#define b2b_gather b2b_gather_x8
#include __FILE__
#undef ntt_rows
#undef batch_inv
#undef weighted_sum
#undef poly_eval_rows
#undef eval_tape
#undef b2b_compress
#undef b2b_many
#undef b2b_gather
#endif

/* The build this process runs: 8 for the eight-lane one, else 1.  Chosen
 * once, below; repro/field/native.py sets it to 1 to test the scalar
 * build on a CPU that has both. */
int gl_lanes = 1;

#if GL_LANE_BUILD
__attribute__((constructor)) static void gl_pick_lanes(void) {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) gl_lanes = 8;
}
#define ON_LANES(fn, ...) (gl_lanes == 8 ? fn##_x8(__VA_ARGS__) : fn(__VA_ARGS__))
#else
#define ON_LANES(fn, ...) fn(__VA_ARGS__)
#endif

/* Fork-join.  A kernel call cuts its independent units (rows, leaves, row
 * blocks, columns) into at most gl_threads chunks, starts a POSIX thread
 * for every chunk but the first, runs the first on the calling thread and
 * joins the others before it returns.  No thread outlives a call, so the
 * process may fork between calls (zkml serve --workers N forks after its
 * warm-up), and no thread spins waiting for work.  A call goes parallel
 * only when every chunk gets CHUNK_WORK or more, a unit of work being
 * about one field multiply (a thread costs tens of microseconds to start
 * and join): below that, and at gl_threads 1, the whole call runs on the
 * caller.  Chunk c runs on the c-th CPU after the caller's in the caller's
 * affinity mask: a thread that lives a millisecond cannot wait for the
 * scheduler to move it off the caller's CPU (on some Linux hosts two
 * unpinned threads ran no faster than one).  A thread that cannot be
 * started has its chunk run by the caller.
 * gl_threads is set by repro/field/native.py from the CPUs the process may
 * run on; gl_forks counts the calls that went parallel. */
int gl_threads = 1;
size_t gl_forks = 0;
enum { MAX_THREADS = 64, CHUNK_WORK = 1 << 16 };

/* run(ctx, c, lo, hi) does chunk c, units [lo, hi) */
typedef void chunk_fn(void *ctx, size_t c, size_t lo, size_t hi);
struct chunk {
    chunk_fn *run;
    void *ctx;
    size_t c, lo, hi;
};

static void *chunk_main(void *arg) {
    struct chunk *k = arg;
    k->run(k->ctx, k->c, k->lo, k->hi);
    return NULL;
}

/* start chunk c's thread, on its CPU where the platform lets us say so */
static int start_chunk(pthread_t *tid, struct chunk *k, const int *cpus, size_t ncpus,
                       size_t home) {
    pthread_attr_t attr;
    int failed;
    if (pthread_attr_init(&attr)) return 0;
#ifdef __linux__
    if (ncpus) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[(home + k->c) % ncpus], &one);
        pthread_attr_setaffinity_np(&attr, sizeof one, &one);
    }
#else
    (void)cpus, (void)ncpus, (void)home;
#endif
    failed = pthread_create(tid, &attr, chunk_main, k);
    pthread_attr_destroy(&attr);
    return !failed;
}

/* run over [0, units) in chunks that start on multiples of grain, the
 * call's total work being work; returns the number of chunks */
static size_t fork_join(chunk_fn *run, void *ctx, size_t units, size_t grain,
                        size_t work) {
    size_t groups = (units + grain - 1) / grain, t = gl_threads > 1 ? gl_threads : 1;
    if (t > MAX_THREADS) t = MAX_THREADS;
    if (t > work / CHUNK_WORK) t = work / CHUNK_WORK;
    if (t > groups) t = groups;
    if (t <= 1) {
        run(ctx, 0, 0, units);
        return 1;
    }
    struct chunk k[MAX_THREADS];
    pthread_t tid[MAX_THREADS];
    int started[MAX_THREADS], cpus[MAX_THREADS];
    size_t ncpus = 0, home = 0;
#ifdef __linux__
    cpu_set_t mask;
    int here = sched_getcpu();
    if (!sched_getaffinity(0, sizeof mask, &mask))
        for (int cpu = 0; cpu < CPU_SETSIZE && ncpus < MAX_THREADS; cpu++)
            if (CPU_ISSET(cpu, &mask)) {
                if (cpu == here) home = ncpus;
                cpus[ncpus++] = cpu;
            }
#endif
    __atomic_add_fetch(&gl_forks, 1, __ATOMIC_RELAXED);
    for (size_t c = 0; c < t; c++) {
        size_t hi = groups * (c + 1) / t * grain;
        k[c] = (struct chunk){run, ctx, c, groups * c / t * grain, hi < units ? hi : units};
    }
    for (size_t c = 1; c < t; c++) started[c] = start_chunk(&tid[c], &k[c], cpus, ncpus, home);
    chunk_main(&k[0]);
    for (size_t c = 1; c < t; c++)
        if (started[c]) pthread_join(tid[c], NULL);
        else chunk_main(&k[c]);
    return t;
}

static size_t log2_of(size_t n) { return n ? (size_t)__builtin_ctzll(n) : 0; }

/* m independent size-n radix-2 NTTs (ntt_rows, below), output row r at
 * out + r * ors, a chunk of rows a thread.  A row shorter than two
 * vectors, or one strided past 2^31 elements, takes the scalar build. */
struct ntt_call {
    u64 *out;
    const u64 *src, *tw, *scale;
    ptrdiff_t ors, srs, scs, sstride;
    size_t n;
    const int64_t *rev;
};

static void ntt_chunk(void *ctx, size_t c, size_t lo, size_t hi) {
    const struct ntt_call *a = ctx;
    u64 *out = a->out + (ptrdiff_t)lo * a->ors;
    const u64 *src = a->src + (ptrdiff_t)lo * a->srs;
    (void)c;
    if (a->n >= 16 && a->scs == (int32_t)a->scs)
        ON_LANES(ntt_rows, out, a->ors, src, a->srs, a->scs, hi - lo, a->n, a->rev,
                 a->tw, a->scale, a->sstride);
    else
        ntt_rows(out, a->ors, src, a->srs, a->scs, hi - lo, a->n, a->rev, a->tw,
                 a->scale, a->sstride);
}

void gl_ntt(u64 *out, ptrdiff_t ors, const u64 *src, ptrdiff_t srs, ptrdiff_t scs,
            size_t m, size_t n, const int64_t *rev, const u64 *tw,
            const u64 *scale, ptrdiff_t sstride) {
    struct ntt_call a = {out, src, tw, scale, ors, srs, scs, sstride, n, rev};
    fork_join(ntt_chunk, &a, m, 1, m * n / 2 * log2_of(n));
}

/* Montgomery's trick (batch_inv, below) on a chunk of a thread, each with
 * its own chains and its own exponentiation; chunks start on multiples of
 * 32, a whole number of either build's chain groups, so only the last has
 * a tail.  Returns the index of the first zero (out then holds no answer)
 * or -1. */
struct inv_call {
    u64 *out;
    const u64 *v;
    ptrdiff_t zero[MAX_THREADS];
};

static void inv_chunk(void *ctx, size_t c, size_t lo, size_t hi) {
    struct inv_call *a = ctx;
    ptrdiff_t at = ON_LANES(batch_inv, a->out + lo, a->v + lo, hi - lo);
    a->zero[c] = at < 0 ? -1 : at + (ptrdiff_t)lo;
}

ptrdiff_t gl_batch_inv(u64 *out, const u64 *v, size_t n) {
    struct inv_call a = {out, v, {0}};
    size_t chunks = fork_join(inv_chunk, &a, n, 32, 3 * n);
    for (size_t c = 0; c < chunks; c++)
        if (a.zero[c] >= 0) return a.zero[c];
    return -1;
}

/* the row kernels read m rows of `width` in place: row i of the call is
 * mat + (idx ? idx[i] : i) * rs.  A weighted sum splits its columns into
 * chunks (of whole SUM_VECS vectors), Horner its rows (of HORNER_ROWS). */
struct rows_call {
    u64 *out;
    const u64 *mat, *vec;
    ptrdiff_t rs;
    const int64_t *idx;
    size_t m, width;
};

static void sum_chunk(void *ctx, size_t c, size_t lo, size_t hi) {
    const struct rows_call *a = ctx;
    (void)c;
    ON_LANES(weighted_sum, a->out + lo, a->mat + lo, a->rs, a->idx, a->vec, a->m, hi - lo);
}

void gl_weighted_sum(u64 *out, const u64 *mat, ptrdiff_t rs, const int64_t *idx,
                     const u64 *w, size_t m, size_t width) {
    struct rows_call a = {out, mat, w, rs, idx, m, width};
    fork_join(sum_chunk, &a, width, SUM_VECS * 8, m * width);
}

static void horner_chunk(void *ctx, size_t c, size_t lo, size_t hi) {
    const struct rows_call *a = ctx;
    (void)c;
    ON_LANES(poly_eval_rows, a->out + lo, a->idx ? a->mat : a->mat + (ptrdiff_t)lo * a->rs,
             a->rs, a->idx ? a->idx + lo : NULL, a->vec + lo, hi - lo, a->width);
}

void gl_poly_eval_rows(u64 *out, const u64 *mat, ptrdiff_t rs, const int64_t *idx,
                       const u64 *points, size_t m, size_t width) {
    struct rows_call a = {out, mat, points, rs, idx, m, width};
    fork_join(horner_chunk, &a, m, HORNER_ROWS, m * width);
}

/* the tape (eval_tape, below) over its parts * ceil(n / TAPE_ROWS) row
 * blocks, a chunk of blocks a thread, each with its own register file */
struct tape_call {
    u64 *out;
    const u64 *const *cols;
    size_t parts, n, ninstr, nregs;
    const int32_t *code;
    const u64 *scalars, *scale;
    int failed;
};

static void tape_chunk(void *ctx, size_t c, size_t lo, size_t hi) {
    struct tape_call *a = ctx;
    (void)c;
    if (ON_LANES(eval_tape, a->out, a->cols, a->parts, a->n, a->code, a->ninstr,
                 a->nregs, a->scalars, a->scale, lo, hi))
        __atomic_store_n(&a->failed, 1, __ATOMIC_RELAXED);
}

int gl_eval_tape(u64 *out, const u64 *const *cols, size_t parts, size_t n,
                 const int32_t *code, size_t ninstr, size_t nregs,
                 const u64 *scalars, const u64 *scale) {
    struct tape_call a = {out, cols, parts, n, ninstr, nregs, code, scalars, scale, 0};
    fork_join(tape_chunk, &a, parts * ((n + TAPE_ROWS - 1) / TAPE_ROWS), 1,
              parts * n * ninstr);
    return a.failed ? -1 : 0;
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

/* A commit round's whole Merkle tree into out, a (2 * padded - 1, 32) node
 * array, leaf level first and the root last.  The round is an (m, ext, n)
 * LDE, m columns of ext coset parts of n residues; leaf j < count =
 * ext * n / 2 is every column at part j % ext, position j / ext, then every
 * column at position j / ext + n / 2 (the points z and -z), read from the
 * LDE where it lies and hashed under leaf_person, eight consecutive leaves
 * abreast on the eight-lane build.  Then padded - count copies of the
 * empty leaf's digest, then every level upward, node j of a level the hash
 * under node_person of its two children (64 contiguous bytes of the level
 * below).  padded is a power of two >= count >= 1.  The leaves, then each
 * level, split into chunks of whole groups of eight, a chunk a thread; a
 * compression counts as B2B_WORK units. */
enum { B2B_WORK = 64 };

struct tree_call {
    uint8_t *out;
    const uint8_t *level;
    const u64 *lde;
    size_t m, ext, n;
    u64 h0[8];
};

static void leaf_chunk(void *ctx, size_t c, size_t lo, size_t hi) {
    const struct tree_call *a = ctx;
    const u64 *lde = a->lde, *msg[8];
    size_t m = a->m, ext = a->ext, n = a->n, j = lo;
    ptrdiff_t cs = (ptrdiff_t)(ext * n), hs = (ptrdiff_t)(n / 2);
    (void)c;
#if GL_LANE_BUILD
    for (; gl_lanes == 8 && j + 8 <= hi; j += 8) {
        for (size_t l = 0; l < 8; l++) msg[l] = lde + (j + l) % ext * n + (j + l) / ext;
        b2b_gather_x8(a->out + 32 * j, a->h0, msg, 2 * m, m, cs, hs);
    }
#endif
    for (; j < hi; j++) {
        msg[0] = lde + j % ext * n + j / ext;
        b2b_gather(a->out + 32 * j, a->h0, msg, 2 * m, m, cs, hs);
    }
}

static void node_chunk(void *ctx, size_t c, size_t lo, size_t hi) {
    const struct tree_call *a = ctx;
    (void)c;
    hash_many(a->out + 32 * lo, a->h0, a->level + 64 * lo, hi - lo, 64);
}

void gl_merkle_tree(uint8_t *out, const u64 *lde, size_t m, size_t ext, size_t n,
                    size_t padded, const uint8_t *leaf_person,
                    const uint8_t *node_person) {
    size_t count = ext * n / 2;
    struct tree_call a = {out, NULL, lde, m, ext, n, {0}};
    b2b_init(a.h0, leaf_person);
    fork_join(leaf_chunk, &a, count, 8, count * ((2 * m + 15) / 16) * B2B_WORK);
    if (padded > count) {
        const u64 *none[1] = {lde};
        b2b_gather(out + 32 * count, a.h0, none, 0, 1, 0, 0); /* the empty leaf */
        for (size_t i = count + 1; i < padded; i++)
            memcpy(out + 32 * i, out + 32 * count, 32);
    }
    b2b_init(a.h0, node_person);
    a.level = out;
    for (size_t width = padded; width > 1; width >>= 1) {
        a.out = (uint8_t *)a.level + 32 * width;
        fork_join(node_chunk, &a, width / 2, 8, width / 2 * B2B_WORK);
        a.level = a.out;
    }
}

/* out[32i : 32i + 32] <- blake2b-256 (no key, no person) of the len
 * residues at cols[i], for i < count: eight columns abreast on the
 * eight-lane build, a chunk of whole groups of eight a thread */
struct columns_call {
    uint8_t *out;
    const u64 *const *cols;
    size_t len;
    u64 h0[8];
};

static void columns_chunk(void *ctx, size_t c, size_t lo, size_t hi) {
    const struct columns_call *a = ctx;
    size_t i = lo;
    (void)c;
#if GL_LANE_BUILD
    for (; gl_lanes == 8 && i + 8 <= hi; i += 8)
        b2b_gather_x8(a->out + 32 * i, a->h0, a->cols + i, a->len, a->len, 1, 0);
#endif
    for (; i < hi; i++) b2b_gather(a->out + 32 * i, a->h0, a->cols + i, a->len, a->len, 1, 0);
}

void gl_hash_columns(uint8_t *out, const u64 *const *cols, size_t count, size_t len) {
    static const uint8_t no_person[16];
    struct columns_call a = {out, cols, len, {0}};
    b2b_init(a.h0, no_person);
    fork_join(columns_chunk, &a, count, 8, count * (len / 16 + 1) * B2B_WORK);
}

#else /* LANES: the lane kernels, compiled once per build */

/* the lane vector: LANES residues and their arithmetic; vloadn(p, k) reads
 * the first k < LANES of them and zeroes the rest, vgather(src, rev, scs)
 * reads src[rev[l] * scs] */
#if LANES == 1
#define vec u64
#define vload(p) (*(p))
#define vloadn(p, k) ((k) ? *(p) : 0)
#define vgather(src, rev, scs) ((src)[*(rev) * (scs)])
#define vstore(p, x) (*(p) = (x))
#define vset1(x) ((u64)(x))
#define vadd gl_add1
#define vsub gl_sub1
#define vmul gl_mul1
#else
#define vec __m512i
#define vload(p) _mm512_loadu_si512(p)
#define vloadn(p, k) _mm512_maskz_loadu_epi64((__mmask8)((1u << (k)) - 1), p)
#define vgather gl_gather_x8
#define vstore(p, x) _mm512_storeu_si512(p, x)
#define vset1(x) _mm512_set1_epi64((long long)(x))
#define vadd gl_add_x8
#define vsub gl_sub_x8
#define vmul gl_mul_x8
#endif

/* m independent size-n radix-2 NTTs, each row along itself.  Row r is
 * gathered from src[r*srs + rev[i]*scs] (times scale[i*sstride] when scale
 * is given: sstride 1 for a per-index vector, 0 for one scalar) into
 * out[r*ors ...], then taken through every stage in place.  tw packs the stage
 * tables back to back: the 2^s twiddles of the stage with butterfly span
 * 2^s start at tw[2^s - 1], so a span of LANES or more is contiguous
 * vector loads under contiguous twiddles; on the eight-lane build the
 * spans below that run inside registers (ntt_spans_x8), and n >= 16. */
LANE_FN static void ntt_rows(u64 *out, ptrdiff_t ors, const u64 *src, ptrdiff_t srs,
                             ptrdiff_t scs, size_t m, size_t n, const int64_t *rev,
                             const u64 *tw, const u64 *scale, ptrdiff_t sstride) {
    for (size_t r = 0; r < m; r++, out += ors, src += srs) {
        for (size_t i = 0; i < n; i += LANES) {
            vec x = vgather(src, rev + i, scs);
            if (scale) x = vmul(x, sstride ? vload(scale + i) : vset1(*scale));
            vstore(out + i, x);
        }
#if LANES > 1
        ntt_spans_x8(out, n, tw);
#endif
        for (size_t half = LANES; half < n; half <<= 1)
            for (u64 *y = out; y < out + n; y += 2 * half)
                for (size_t j = 0; j < half; j += LANES) {
                    vec u = vload(y + j);
                    vec v = vmul(vload(y + half + j), vload(tw + half - 1 + j));
                    vstore(y + j, vadd(u, v));
                    vstore(y + half + j, vsub(u, v));
                }
    }
}

/* Montgomery's trick on INV_VECS * LANES chains abreast, chain c taking
 * every element whose index is c modulo that, plus one chain for the tail,
 * so the multiplier has that many independent products in flight; the
 * chain totals are inverted together by the same trick (one gl_inv1).
 * out must not alias v.  Returns the index of the first zero (out is then
 * untouched) or -1. */
LANE_FN static ptrdiff_t batch_inv(u64 *out, const u64 *v, size_t n) {
    enum { INV_VECS = LANES == 1 ? 8 : 4, W = INV_VECS * LANES };
    size_t body = n - n % W;
    u64 tot[W + 1], pre[W + 1], inv = 1;
    vec acc[INV_VECS];
    for (size_t i = 0; i < n; i++)
        if (!v[i]) return (ptrdiff_t)i;
    for (int q = 0; q < INV_VECS; q++) acc[q] = vset1(1);
    for (size_t i = 0; i < body; i += W)
        for (int q = 0; q < INV_VECS; q++) {
            vstore(out + i + q * LANES, acc[q]);
            acc[q] = vmul(acc[q], vload(v + i + q * LANES));
        }
    for (int q = 0; q < INV_VECS; q++) vstore(tot + q * LANES, acc[q]);
    tot[W] = 1;
    for (size_t i = body; i < n; i++) {
        out[i] = tot[W];
        tot[W] = gl_mul1(tot[W], v[i]);
    }
    for (int c = 0; c <= W; c++) {
        pre[c] = inv;
        inv = gl_mul1(inv, tot[c]);
    }
    inv = gl_inv1(inv);
    for (int c = W + 1; c-- > 0;) {
        u64 total = tot[c];
        tot[c] = gl_mul1(pre[c], inv);
        inv = gl_mul1(inv, total);
    }
    for (size_t i = n; i-- > body;) {
        out[i] = gl_mul1(out[i], tot[W]);
        tot[W] = gl_mul1(tot[W], v[i]);
    }
    for (int q = 0; q < INV_VECS; q++) acc[q] = vload(tot + q * LANES);
    for (size_t i = body; i > 0;) {
        i -= W;
        for (int q = 0; q < INV_VECS; q++) {
            vec x = vload(v + i + q * LANES);
            vstore(out + i + q * LANES, vmul(vload(out + i + q * LANES), acc[q]));
            acc[q] = vmul(acc[q], x);
        }
    }
    return -1;
}

/* row i of a row kernel's call (gl_weighted_sum, gl_poly_eval_rows) */
#define ROW(i) (mat + (idx ? idx[i] : (int64_t)(i)) * rs)

/* out[j] = sum_i w[i] * ROW(i)[j] over m rows of width: SUM_VECS vectors of
 * columns abreast, each accumulated down all rows in registers, then the
 * width % (SUM_VECS * LANES) columns left one by one */
LANE_FN static void weighted_sum(u64 *out, const u64 *mat, ptrdiff_t rs,
                                 const int64_t *idx, const u64 *w, size_t m,
                                 size_t width) {
    size_t j = 0;
    for (; j + SUM_VECS * LANES <= width; j += SUM_VECS * LANES) {
        vec acc[SUM_VECS];
        for (int q = 0; q < SUM_VECS; q++) acc[q] = vset1(0);
        for (size_t i = 0; i < m; i++) {
            const u64 *row = ROW(i) + j;
            vec wi = vset1(w[i]);
            for (int q = 0; q < SUM_VECS; q++)
                acc[q] = vadd(acc[q], vmul(vload(row + q * LANES), wi));
        }
        for (int q = 0; q < SUM_VECS; q++) vstore(out + j + q * LANES, acc[q]);
    }
    for (; j < width; j++) {
        u64 acc = 0;
        for (size_t i = 0; i < m; i++) acc = gl_add1(acc, gl_mul1(ROW(i)[j], w[i]));
        out[j] = acc;
    }
}

/* out[i] = ROW(i)(points[i]), the polynomial of width coefficients.  A row
 * is LANES interleaved sub-polynomials in x^LANES (lane l holds the
 * coefficients l, l + LANES, ...), all taken by Horner at once, then
 * recombined by Horner in x; HORNER_ROWS rows go abreast, since one row is
 * a single dependent chain (the last group repeats its last row). */
LANE_FN static void poly_eval_rows(u64 *out, const u64 *mat, ptrdiff_t rs,
                                   const int64_t *idx, const u64 *points, size_t m,
                                   size_t width) {
    size_t top = width - width % LANES; /* where the partial block starts */
    for (size_t i = 0; i < m; i += HORNER_ROWS) {
        const u64 *c[HORNER_ROWS];
        vec acc[HORNER_ROWS], y[HORNER_ROWS];
        for (size_t l = 0; l < HORNER_ROWS; l++) {
            size_t row = i + l < m ? i + l : m - 1;
            u64 x = points[row];
            for (size_t s = 1; s < LANES; s <<= 1) x = gl_mul1(x, x);
            c[l] = ROW(row);
            y[l] = vset1(x);
            acc[l] = vloadn(c[l] + top, width - top);
        }
        for (size_t j = top; j > 0;) {
            j -= LANES;
            for (size_t l = 0; l < HORNER_ROWS; l++)
                acc[l] = vadd(vmul(acc[l], y[l]), vload(c[l] + j));
        }
        for (size_t l = 0; l < HORNER_ROWS && i + l < m; l++) {
            u64 sub[LANES], r = 0;
            vstore(sub, acc[l]);
            for (size_t t = LANES; t-- > 0;) r = gl_add1(gl_mul1(r, points[i + l]), sub[t]);
            out[i + l] = r;
        }
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
 * nregs * TAPE_ROWS words at any n (and one block for a scaled STORE); a
 * LOAD that does not wrap points its register into the column instead of
 * copying.  This runs blocks [lo, hi) of the parts * ceil(n / TAPE_ROWS),
 * block b being rows from (b mod that) * TAPE_ROWS of part b / that.
 * Returns 0, or -1 when the register file cannot be allocated. */
LANE_FN static int eval_tape(u64 *out, const u64 *const *cols, size_t parts, size_t n,
                             const int32_t *code, size_t ninstr, size_t nregs,
                             const u64 *scalars, const u64 *scale, size_t lo, size_t hi) {
    static const u64 zero = 0;
    size_t rows = n < TAPE_ROWS ? n : TAPE_ROWS, blocks = (n + rows - 1) / rows;
    u64 *file = malloc((nregs + 1) * rows * sizeof *file);
    const u64 **reg = malloc((nregs + 1) * sizeof *reg);
    if (!file || !reg) {
        free(file);
        free(reg);
        return -1;
    }
    for (size_t block = lo; block < hi; block++) {
        size_t r = block / blocks, t0 = block % blocks * rows;
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
            size_t as = ins[2] >= 0, bs = as;
            const u64 *a = as ? reg[ins[2]] : scalars + (-1 - (ptrdiff_t)ins[2]), *b = a;
            u64 *o = file + (op == TAPE_STORE ? nregs : (size_t)ins[1]) * rows;
            if (op == TAPE_STORE) {
                u64 *dst = out + (size_t)ins[1] * n * parts + t0 * parts + r;
                if (scale) {
                    b = scale + r, bs = 0;
                    TAPE_BINARY(vmul, gl_mul1);
                    a = o, as = 1;
                }
                if (parts == 1 && as) memcpy(dst, a, len * sizeof *dst);
                else for (size_t j = 0; j < len; j++) dst[j * parts] = a[j * as];
                continue;
            }
            if (op == TAPE_NEG) {
                a = &zero, as = 0;
            } else {
                bs = ins[3] >= 0;
                b = bs ? reg[ins[3]] : scalars + (-1 - (ptrdiff_t)ins[3]);
            }
            if (op == TAPE_ADD) TAPE_BINARY(vadd, gl_add1);
            else if (op == TAPE_MUL) TAPE_BINARY(vmul, gl_mul1);
            else TAPE_BINARY(vsub, gl_sub1);
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

/* out[32l : 32l + 32] <- blake2b-256 from h0 of LANES messages of `words`
 * residues, each hashed as its 8 little-endian bytes: word i of message l
 * is msg[l][(i % per) * cs + (i / per) * hs], read where it lies */
LANE_FN static void b2b_gather(uint8_t *out, const u64 h0[8], const u64 *const *msg,
                               size_t words, size_t per, ptrdiff_t cs, ptrdiff_t hs) {
    u64 h[8][LANES], block[16][LANES];
    size_t done = 0, col = 0;
    ptrdiff_t start = 0, off = 0; /* (i / per) * hs, and word i's offset */
    for (int i = 0; i < 8; i++)
        for (size_t l = 0; l < LANES; l++) h[i][l] = h0[i];
    do { /* once for an empty message: its one block is all zero */
        size_t take = words - done < 16 ? words - done : 16;
        for (size_t i = 0; i < 16; i++) {
            for (size_t l = 0; l < LANES; l++) block[i][l] = i < take ? msg[l][off] : 0;
            if (i >= take) continue;
            off += cs;
            if (++col == per) {
                col = 0;
                off = start += hs;
            }
        }
        done += take;
        b2b_compress(h, block, 8 * done, done == words);
    } while (done < words);
    for (size_t l = 0; l < LANES; l++)
        for (int i = 0; i < 32; i++)
            out[32 * l + i] = (uint8_t)(h[i / 8][l] >> (8 * (i % 8)));
}

#undef vec
#undef vload
#undef vloadn
#undef vgather
#undef vstore
#undef vset1
#undef vadd
#undef vsub
#undef vmul
#undef ROW
#endif /* LANES */
