/* sched_setaffinity/sched_getaffinity for the benchmark's CPU placement. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>

value perfbench_get_affinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(caml_alloc_tuple(0));
  for (int i = 0; i < CPU_SETSIZE; i++) if (CPU_ISSET(i, &set)) n++;
  cpus = n == 0 ? Atom(0) : caml_alloc_tuple(n);
  for (int i = 0; i < CPU_SETSIZE && k < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(cpus, k++, Val_int(i));
  CAMLreturn(cpus);
}

value perfbench_set_affinity(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int cpu = Int_val(Field(cpus, i));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  CAMLreturn(Val_bool(sched_setaffinity(0, sizeof set, &set) == 0));
}

#else

value perfbench_get_affinity(value unit) { return Atom(0); }
value perfbench_set_affinity(value cpus) { return Val_false; }

#endif
