/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): a carry-less-
   multiply fold where the CPU has one, slicing-by-8 everywhere else.

   Slicing-by-8: table[0] is the classic bytewise table; table[k]
   advances a byte's contribution through k further zero bytes, so one
   step folds eight input bytes with eight lookups.  Bytes are loaded one
   at a time, so the result does not depend on the host's byte order.
   It is the portable kernel and the folded kernel's tail loop.

   Folded: on x86-64 with PCLMULQDQ and SSE4.1 (checked once, at init),
   spans of 64 bytes and more are folded four 128-bit lanes at a time
   with carry-less multiplies by x^k mod P, then reduced to 32 bits by
   Barrett reduction (Gopal et al., "Fast CRC Computation for Generic
   Polynomials Using PCLMULQDQ Instruction", Intel, 2009).  The
   constants are the published bit-reflected ones for this polynomial.
   Both kernels carry the same register (initial value and final XOR
   are applied around them), so every digest is bit-identical. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t table[8][256];

static uint32_t sliced(uint32_t crc, const unsigned char *p, size_t len)
{
  for (; len >= 8; p += 8, len -= 8) {
    crc ^= (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
           | (uint32_t)p[3] << 24;
    crc = table[7][crc & 0xff] ^ table[6][(crc >> 8) & 0xff]
          ^ table[5][(crc >> 16) & 0xff] ^ table[4][crc >> 24]
          ^ table[3][p[4]] ^ table[2][p[5]] ^ table[1][p[6]] ^ table[0][p[7]];
  }
  for (; len > 0; p++, len--) crc = table[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_FOLD 1
#include <cpuid.h>
#include <immintrin.h>

/* Folds [len] bytes (len >= 64, a multiple of 16) into the register. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t folded(uint32_t crc, const unsigned char *p, size_t len)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596LL, 0x0154442bd4LL);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009eLL, 0x01751997d0LL);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124LL);
  const __m128i poly = _mm_set_epi64x(0x01f7011641LL, 0x01db710641LL);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1, x2, x3, x4, t1, t2, t3, t4;

  x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
  p += 64;
  len -= 64;

  /* four lanes, 512 bits per step */
  while (len >= 64) {
    t1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    t2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    t3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    t4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t1),
                       _mm_loadu_si128((const __m128i *)(p + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, t2),
                       _mm_loadu_si128((const __m128i *)(p + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, t3),
                       _mm_loadu_si128((const __m128i *)(p + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, t4),
                       _mm_loadu_si128((const __m128i *)(p + 0x30)));
    p += 64;
    len -= 64;
  }

  /* the four lanes into one, then 128 bits per step */
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x11), t1), x2);
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x11), t1), x3);
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x11), t1), x4);
  while (len >= 16) {
    t1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x11), t1),
                       _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }

  /* 128 -> 64 bits */
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2);

  /* Barrett reduction to 32 bits */
  x2 = _mm_and_si128(x1, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
  x2 = _mm_and_si128(x2, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}

static int fold_ok;
#endif

value bdbms_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = table[k - 1][n];
      table[k][n] = (prev >> 8) ^ table[0][prev & 0xff];
    }
#ifdef HAVE_FOLD
  {
    unsigned int a, b, c, d;
    fold_ok = __get_cpuid(1, &a, &b, &c, &d) && (c & bit_PCLMUL)
              && (c & bit_SSE4_1);
  }
#endif
  return Val_unit;
}

/* Which kernel [bdbms_crc32_digest] runs on this host. */
value bdbms_crc32_folded(value unit)
{
  (void)unit;
#ifdef HAVE_FOLD
  return Val_bool(fold_ok);
#else
  return Val_false;
#endif
}

/* The digest of [len] bytes of [s] from [pos]; the caller has checked
   the bounds.  Both externals allocate nothing and never raise
   ([@@noalloc]). */
value bdbms_crc32_digest(value s, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(vpos);
  size_t len = (size_t)Long_val(vlen);
  uint32_t crc = 0xFFFFFFFFu;
#ifdef HAVE_FOLD
  if (fold_ok && len >= 64) {
    size_t span = len & ~(size_t)15;
    crc = folded(crc, p, span);
    p += span;
    len -= span;
  }
#endif
  return Val_long(sliced(crc, p, len) ^ 0xFFFFFFFFu);
}

value bdbms_crc32_portable(value s, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(vpos);
  return Val_long(sliced(0xFFFFFFFFu, p, (size_t)Long_val(vlen)) ^ 0xFFFFFFFFu);
}
