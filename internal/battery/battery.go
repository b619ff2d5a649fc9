// Package battery models the energy storage of a battery-backed data
// center: the rack battery cabinet, a lead-acid battery following the
// KiBaM kinetic battery model behind a low-voltage disconnect (LVD); the
// super-capacitor bank of the μDEB spike shaver; and the online and
// offline charge-control policies the paper contrasts in Figure 5.
//
// Power is used in place of current throughout: the DC bus voltage is
// treated as constant, so the two differ only by a constant factor and
// energy bookkeeping stays exact.
//
// A battery or bank is not safe for concurrent use: each belongs to
// exactly one simulation run and is stepped only by that run's
// goroutine. The parallel sweep runner (internal/runner) keeps this sound
// by constructing every device inside the job that uses it.
package battery
