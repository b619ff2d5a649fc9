package schemes

import (
	"fmt"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

// SchemeNames lists the six evaluated schemes in the paper's Table III
// order — the names ByName accepts.
var SchemeNames = []string{"Conv", "PS", "PSPC", "uDEB", "vDEB", "PAD"}

// ByName constructs a fresh instance of the named scheme. Scheme
// instances carry per-run controller state, so every sim.Run (and every
// online padd session) needs its own. Deploy also installs the hardware
// the scheme needs.
func ByName(name string, opts Options) (sim.Scheme, error) {
	switch name {
	case "Conv":
		return NewConv(opts), nil
	case "PS":
		return NewPS(opts), nil
	case "PSPC":
		return NewPSPC(opts), nil
	case "uDEB":
		return NewUDEB(opts), nil
	case "vDEB":
		return NewVDEB(opts), nil
	case "PAD":
		return NewPAD(opts), nil
	default:
		return nil, fmt.Errorf("schemes: unknown scheme %q (want one of %v)", name, SchemeNames)
	}
}

// Deploy constructs the named scheme with default options and installs
// in cfg the hardware it needs: uDEB and the full PAD defense get a μDEB
// bank on every rack holding microFraction of the rack battery's energy.
func Deploy(cfg *sim.Config, name string, microFraction float64) (sim.Scheme, error) {
	scheme, err := ByName(name, Options{})
	if err == nil && (name == "uDEB" || name == "PAD") {
		cfg.MicroDEBFactory = MicroDEBFactory(microFraction)
	}
	return scheme, err
}

// DefaultMicroFraction is the μDEB sizing outside Figure 17's sweep: 1%
// of the rack cabinet's energy, about 0.7 Wh on the evaluated rack, the
// same order as the paper's 0.35 Wh example bank.
const DefaultMicroFraction = 0.01

// MicroDEBFactory returns a sim.Config.MicroDEBFactory deploying on each
// rack a μDEB bank holding the given fraction of the rack battery's
// energy — the sizing the paper's evaluation and cmd/padsim use.
func MicroDEBFactory(fraction float64) func(nameplate, budget units.Watts) *core.MicroDEB {
	return func(nameplate, budget units.Watts) *core.MicroDEB {
		cap_ := battery.SizeForAutonomy(nameplate, battery.RackCabinetAutonomy, 0, 0)
		bank := battery.NewMicroDEB(units.Joules(float64(cap_)*fraction), nameplate)
		u, err := core.NewMicroDEB(bank, budget)
		if err != nil {
			panic(err) // nameplate-derived sizes are always valid
		}
		return u
	}
}
