/* wait4(2) for the benchmark: the exit status and the peak resident set
   of one child, which OCaml's Unix library does not expose. */
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 : int -> int * int * int * float
   (exit code or -1, signal number or 0, ru_maxrss in KiB,
    user + system CPU seconds) */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4 failed");
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  Store_field(res, 1, Val_int(WIFSIGNALED(status) ? WTERMSIG(status) : 0));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  Store_field(res, 3,
              caml_copy_double((double)ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 +
                               (double)ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6));
  CAMLreturn(res);
}
