/* AES-NI kernel behind Aes: one-block AES-128 encryption and the
   AES-128 key schedule, the two operations every MAC in Colibri is
   built on. AESENC/AESENCLAST do the rounds of both.

   The schedule is the 176-byte buffer Aes.key wraps: 11 round keys in
   FIPS-197 byte order, so round key r is one 16-byte load at 16r. The
   OCaml wrappers check every span before calling in; these functions
   read and write only the checked 16-byte blocks and the schedule,
   never allocate and never call back into the runtime, which is what
   lets aes.ml declare them [@@noalloc].

   No build flag: the functions carry a target attribute, and Aes calls
   them only when colibri_aesni_available says the CPU has AES-NI. On
   other architectures the file compiles to stubs that report
   "unsupported" and are never called. */

#include <caml/mlvalues.h>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))

#include <emmintrin.h>
#include <wmmintrin.h>

#define COLIBRI_AESNI __attribute__((target("aes,sse2")))

/* One round of the key schedule, from the previous round key [k].
   Word 3 is broadcast to all four columns, where ShiftRows is the
   identity, so AESENCLAST applies SubWord to it; the per-lane rotate
   by 8 bits is RotWord, and the rcon goes in through AESENCLAST's
   round key pre-rotated the other way. [u] is the running XOR of the
   four columns. This is the AESKEYGENASSIST schedule without that
   instruction, which is several times slower than AESENCLAST on some
   cores: about 55 ns against 21 ns per 11-round expansion on a 2-vCPU
   Intel Xeon guest. */
#define EXPAND_ROUND(r, rcon)                                             \
  do {                                                                    \
    __m128i t = _mm_aesenclast_si128(_mm_shuffle_epi32(k, 0xff),          \
                                     _mm_set1_epi32((rcon) << 8));        \
    __m128i u = _mm_xor_si128(k, _mm_slli_si128(k, 4));                   \
    t = _mm_or_si128(_mm_srli_epi32(t, 8), _mm_slli_epi32(t, 24));        \
    u = _mm_xor_si128(u, _mm_slli_si128(u, 8));                           \
    k = _mm_xor_si128(u, t);                                              \
    _mm_storeu_si128((__m128i *)(rk + 16 * (r)), k);                      \
  } while (0)

COLIBRI_AESNI
static void aesni_expand(const unsigned char *key, unsigned char *rk)
{
  __m128i k = _mm_loadu_si128((const __m128i *)key);
  _mm_storeu_si128((__m128i *)rk, k);
  EXPAND_ROUND(1, 0x01);
  EXPAND_ROUND(2, 0x02);
  EXPAND_ROUND(3, 0x04);
  EXPAND_ROUND(4, 0x08);
  EXPAND_ROUND(5, 0x10);
  EXPAND_ROUND(6, 0x20);
  EXPAND_ROUND(7, 0x40);
  EXPAND_ROUND(8, 0x80);
  EXPAND_ROUND(9, 0x1b);
  EXPAND_ROUND(10, 0x36);
}

/* The block is loaded whole before the store, so [src] and [dst] may
   alias. */
COLIBRI_AESNI
static void aesni_encrypt(const unsigned char *rk, const unsigned char *src,
                          unsigned char *dst)
{
  __m128i s = _mm_xor_si128(_mm_loadu_si128((const __m128i *)src),
                            _mm_loadu_si128((const __m128i *)rk));
  for (int r = 1; r < 10; r++)
    s = _mm_aesenc_si128(s, _mm_loadu_si128((const __m128i *)(rk + 16 * r)));
  s = _mm_aesenclast_si128(s, _mm_loadu_si128((const __m128i *)(rk + 160)));
  _mm_storeu_si128((__m128i *)dst, s);
}

static int aesni_available(void)
{
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse2");
}

#else

static void aesni_expand(const unsigned char *key, unsigned char *rk)
{
  (void)key;
  (void)rk;
}

static void aesni_encrypt(const unsigned char *rk, const unsigned char *src,
                          unsigned char *dst)
{
  (void)rk;
  (void)src;
  (void)dst;
}

static int aesni_available(void) { return 0; }

#endif

value colibri_aesni_available(value unit)
{
  (void)unit;
  return Val_bool(aesni_available());
}

value colibri_aesni_expand(value key, intnat off, value rk)
{
  aesni_expand(Bytes_val(key) + off, Bytes_val(rk));
  return Val_unit;
}

value colibri_aesni_expand_byte(value key, value off, value rk)
{
  return colibri_aesni_expand(key, Long_val(off), rk);
}

value colibri_aesni_encrypt(value rk, value src, intnat src_off, value dst,
                            intnat dst_off)
{
  aesni_encrypt(Bytes_val(rk), Bytes_val(src) + src_off,
                Bytes_val(dst) + dst_off);
  return Val_unit;
}

value colibri_aesni_encrypt_byte(value rk, value src, value src_off, value dst,
                                 value dst_off)
{
  return colibri_aesni_encrypt(rk, src, Long_val(src_off), dst,
                               Long_val(dst_off));
}
