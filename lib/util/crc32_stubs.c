/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.

   table[0] is the classic bytewise table; table[k] advances a byte's
   contribution through k further zero bytes, so one step folds eight
   input bytes with eight lookups.  Bytes are loaded one at a time, so
   the result does not depend on the host's byte order. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t table[8][256];

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
  return Val_unit;
}

/* The digest of [len] bytes of [s] from [pos]; the caller has checked
   the bounds.  Allocates nothing and never raises ([@@noalloc]). */
value bdbms_crc32_digest(value s, value vpos, value vlen)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(vpos);
  size_t len = (size_t)Long_val(vlen);
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    crc ^= (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
           | (uint32_t)p[3] << 24;
    crc = table[7][crc & 0xff] ^ table[6][(crc >> 8) & 0xff]
          ^ table[5][(crc >> 16) & 0xff] ^ table[4][crc >> 24]
          ^ table[3][p[4]] ^ table[2][p[5]] ^ table[1][p[6]] ^ table[0][p[7]];
  }
  for (; len > 0; p++, len--) crc = table[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return Val_long(crc ^ 0xFFFFFFFFu);
}
