/* Positional reads for the database file and the log (backend.ml).

   Each read is one pread(2) at an absolute offset (short reads and
   EINTR are retried, end of file stops it), so no seek pointer is
   shared and one page-in costs one syscall.  The runtime lock is
   released around the syscall, as Unix.read does: the read lands in a
   C buffer, and the bytes are copied into OCaml memory only after the
   lock is back.  Another thread may run a collection meanwhile and move
   any OCaml block, so every value touched after the lock is retaken is
   a registered root (CAMLparam). */

#define CAML_NAME_SPACE
#include <errno.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#define STACK_BUF 65536

/* Reads up to [len] bytes at [off]; fewer only at end of file.  Touches
   no OCaml value, so it may run without the runtime lock.  Returns the
   bytes read, or -1 with errno set. */
static ssize_t read_at(int fd, char *buf, size_t len, off_t off)
{
  size_t got = 0;
  while (got < len) {
    ssize_t n = pread(fd, buf + got, len - got, off + (off_t)got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;
    got += (size_t)n;
  }
  return (ssize_t)got;
}

/* [len] bytes of scratch: on the stack when they fit, else malloc'd. */
static char *scratch(char *stack, size_t len)
{
  char *p = len <= STACK_BUF ? stack : malloc(len);
  if (p == NULL) caml_raise_out_of_memory();
  return p;
}

static ssize_t blocking_read(int fd, char *buf, size_t len, off_t off,
                             char *stack)
{
  caml_enter_blocking_section();
  ssize_t got = read_at(fd, buf, len, off);
  int err = errno;
  caml_leave_blocking_section();
  if (got < 0) {
    if (buf != stack) free(buf);
    errno = err;
    caml_uerror("pread", Nothing);
  }
  return got;
}

/* [read_at fd off buf pos len]: reads up to [len] bytes at file offset
   [off] into [buf] from [pos]; returns the count, short only at end of
   file.  The caller has checked the bounds. */
value bdbms_read_at(value vfd, value voff, value buf, value vpos, value vlen)
{
  CAMLparam1(buf);
  size_t len = (size_t)Long_val(vlen);
  char stack[STACK_BUF];
  char *tmp = scratch(stack, len);
  ssize_t got = blocking_read(Int_val(vfd), tmp, len, (off_t)Long_val(voff), stack);
  memcpy((char *)Bytes_val(buf) + Long_val(vpos), tmp, (size_t)got);
  if (tmp != stack) free(tmp);
  CAMLreturn(Val_long(got));
}

/* [read_slot fd off magic page]: reads one page slot — the page image
   then an 8-byte trailer (4-byte [magic] + little-endian u32 CRC) — at
   [off], past end of file as zero bytes, and copies the image into
   [page].  Returns the trailer's stored CRC when its magic matches, -1
   when the whole slot is zero, -2 otherwise. */
value bdbms_read_slot(value vfd, value voff, value vmagic, value page)
{
  CAMLparam1(page);
  size_t ps = caml_string_length(page), len = ps + 8;
  unsigned char magic[4];
  memcpy(magic, String_val(vmagic), 4);
  char stack[STACK_BUF];
  char *tmp = scratch(stack, len);
  ssize_t got = blocking_read(Int_val(vfd), tmp, len, (off_t)Long_val(voff), stack);
  memset(tmp + got, 0, len - (size_t)got);
  memcpy(Bytes_val(page), tmp, ps);
  const unsigned char *t = (const unsigned char *)tmp + ps;
  long r;
  if (memcmp(t, magic, 4) == 0)
    r = (long)((uint32_t)t[4] | (uint32_t)t[5] << 8 | (uint32_t)t[6] << 16
               | (uint32_t)t[7] << 24);
  else {
    size_t i = 0;
    while (i < len && tmp[i] == 0) i++;
    r = i == len ? -1 : -2;
  }
  if (tmp != stack) free(tmp);
  CAMLreturn(Val_long(r));
}
