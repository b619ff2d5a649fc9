// Package placement models the preparation step of the paper's threat
// model (§3.1): before any power can be abused, the attacker must land
// virtual machines on physical servers of the victim rack — "either
// opportunistically look for such a host by repeatedly creating many
// VMs ... or keep rebooting a few VMs until they reach the same desired
// location" (the Ristenpart-style co-residency game). The package
// provides a slot-based cloud cluster with pluggable scheduling policies,
// tenant churn, and an attacker campaign that measures how many probe
// VMs (and how much money) it takes to assemble an attack squad on one
// rack.
//
// Concurrency: a Cluster is mutable and single-goroutine, but RunCampaign
// builds its whole world (cluster, tenants, RNG) from its config, so
// independent campaigns may run concurrently — the sweep runner exploits
// this in the placement ablation.
package placement

import (
	"fmt"

	"repro/internal/stats"
)

// Policy is a VM scheduling policy.
type Policy int

// The implemented policies.
const (
	// PackLowestID fills the first server with free slots — the layout
	// friendliest to an attacker hunting a specific rack.
	PackLowestID Policy = iota
	// SpreadLeastLoaded balances across servers.
	SpreadLeastLoaded
	// RandomFit picks a random server with a free slot.
	RandomFit
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PackLowestID:
		return "pack"
	case SpreadLeastLoaded:
		return "spread"
	case RandomFit:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Cluster is a slot-based VM cluster: racks × servers-per-rack servers,
// each with a fixed number of VM slots.
type Cluster struct {
	racks, spr, slots int
	used              []int // per-server used slots
	policy            Policy
	rng               *stats.RNG

	nextVM int
	owner  map[int]int // vm id -> server
}

// NewCluster builds a cluster.
func NewCluster(racks, serversPerRack, slotsPerServer int, policy Policy, seed uint64) (*Cluster, error) {
	if racks <= 0 || serversPerRack <= 0 || slotsPerServer <= 0 {
		return nil, fmt.Errorf("placement: invalid cluster %dx%dx%d", racks, serversPerRack, slotsPerServer)
	}
	return &Cluster{
		racks: racks, spr: serversPerRack, slots: slotsPerServer,
		used:   make([]int, racks*serversPerRack),
		policy: policy,
		rng:    stats.NewRNG(seed).Split(0x9149e),
		owner:  map[int]int{},
	}, nil
}

// RackOf returns the rack hosting server s.
func (c *Cluster) RackOf(server int) int { return server / c.spr }

// Utilization reports the fraction of slots in use.
func (c *Cluster) Utilization() float64 {
	total := 0
	for _, u := range c.used {
		total += u
	}
	return float64(total) / float64(len(c.used)*c.slots)
}

// Launch schedules one VM and returns its id and hosting server, or an
// error when the cluster is full.
func (c *Cluster) Launch() (vm, server int, err error) {
	server = -1
	switch c.policy {
	case PackLowestID:
		for s, u := range c.used {
			if u < c.slots {
				server = s
				break
			}
		}
	case SpreadLeastLoaded:
		best := c.slots
		for s, u := range c.used {
			if u < best {
				best = u
				server = s
			}
		}
	case RandomFit:
		free := make([]int, 0, len(c.used))
		for s, u := range c.used {
			if u < c.slots {
				free = append(free, s)
			}
		}
		if len(free) > 0 {
			server = free[c.rng.Intn(len(free))]
		}
	}
	if server < 0 {
		return 0, 0, fmt.Errorf("placement: cluster full")
	}
	c.used[server]++
	vm = c.nextVM
	c.nextVM++
	c.owner[vm] = server
	return vm, server, nil
}

// Terminate releases a VM. Unknown ids are ignored.
func (c *Cluster) Terminate(vm int) {
	if s, ok := c.owner[vm]; ok {
		c.used[s]--
		delete(c.owner, vm)
	}
}

// fill launches background tenant VMs until the target utilization.
func (c *Cluster) fill(target float64) []int {
	var tenants []int
	for c.Utilization() < target {
		vm, _, err := c.Launch()
		if err != nil {
			break
		}
		tenants = append(tenants, vm)
	}
	return tenants
}

// CampaignConfig parameterizes the attacker's co-residency hunt.
type CampaignConfig struct {
	// Racks, ServersPerRack, SlotsPerServer shape the cluster. Zeros
	// select 22×10×4.
	Racks, ServersPerRack, SlotsPerServer int
	// Policy is the cloud's scheduler. Default PackLowestID.
	Policy Policy
	// Occupancy is the tenant fill level in [0, 1). 0 selects 0.6.
	Occupancy float64
	// WantServers is how many distinct servers of one rack the attacker
	// needs (the paper's attacks use 1-4 malicious nodes). 0 selects 4.
	WantServers int
	// TargetRack pins the hunt to a specific rack; -1 lets the attacker
	// accept any rack ("opportunistically look for such a host").
	TargetRack int
	// OracleAccuracy is the probability a co-residency probe correctly
	// identifies its rack (network-latency side channels are noisy). 0
	// selects 0.95.
	OracleAccuracy float64
	// MaxProbes bounds the campaign. 0 selects 100000.
	MaxProbes int
	// ChurnPerProbe is the expected number of tenant arrivals+departures
	// between attacker probes. 0 selects 1.
	ChurnPerProbe float64
	// Seed drives all randomness.
	Seed uint64
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Racks == 0 {
		c.Racks = 22
	}
	if c.ServersPerRack == 0 {
		c.ServersPerRack = 10
	}
	if c.SlotsPerServer == 0 {
		c.SlotsPerServer = 4
	}
	if c.Occupancy == 0 {
		c.Occupancy = 0.6
	}
	if c.WantServers == 0 {
		c.WantServers = 4
	}
	if c.OracleAccuracy == 0 {
		c.OracleAccuracy = 0.95
	}
	if c.MaxProbes == 0 {
		c.MaxProbes = 100000
	}
	if c.ChurnPerProbe == 0 {
		c.ChurnPerProbe = 1
	}
	return c
}

// Validate reports a configuration error, if any.
func (c CampaignConfig) Validate() error {
	c = c.withDefaults()
	if c.Occupancy < 0 || c.Occupancy >= 1 {
		return fmt.Errorf("placement: occupancy %v out of [0,1)", c.Occupancy)
	}
	if c.WantServers <= 0 || c.WantServers > c.ServersPerRack {
		return fmt.Errorf("placement: want %d servers of a %d-server rack",
			c.WantServers, c.ServersPerRack)
	}
	if c.TargetRack >= c.Racks {
		return fmt.Errorf("placement: target rack %d of %d", c.TargetRack, c.Racks)
	}
	if c.OracleAccuracy <= 0 || c.OracleAccuracy > 1 {
		return fmt.Errorf("placement: oracle accuracy %v out of (0,1]", c.OracleAccuracy)
	}
	return nil
}

// CampaignResult summarizes a co-residency hunt.
type CampaignResult struct {
	// Succeeded reports whether the squad was assembled within MaxProbes.
	Succeeded bool
	// Probes is the number of VMs the attacker launched.
	Probes int
	// Rack is the rack the squad landed on.
	Rack int
	// Servers are the distinct compromised servers (global ids).
	Servers []int
	// MisidentifiedKept counts squad VMs the noisy oracle placed on the
	// wrong rack — the attacker believes they are on Rack but they are
	// not (these weaken the eventual power attack).
	MisidentifiedKept int
}

// RunCampaign plays the attacker's probe-and-keep strategy: launch a VM,
// query the (noisy) co-residency oracle for its rack, keep it if it lands
// on the squad's rack on a server not yet held, otherwise terminate it.
// Tenant churn proceeds between probes.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed).Split(0xca3b)
	cl, err := NewCluster(cfg.Racks, cfg.ServersPerRack, cfg.SlotsPerServer, cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tenants := cl.fill(cfg.Occupancy)

	res := &CampaignResult{Rack: cfg.TargetRack}
	held := map[int]int{} // server -> vm
	squadRack := cfg.TargetRack

	for res.Probes < cfg.MaxProbes && len(held) < cfg.WantServers {
		// Tenant churn between probes.
		n := rng.Poisson(cfg.ChurnPerProbe)
		for i := 0; i < n; i++ {
			if rng.Bool(0.5) && len(tenants) > 0 {
				idx := rng.Intn(len(tenants))
				cl.Terminate(tenants[idx])
				tenants[idx] = tenants[len(tenants)-1]
				tenants = tenants[:len(tenants)-1]
			} else if cl.Utilization() < 0.95 {
				if vm, _, err := cl.Launch(); err == nil {
					tenants = append(tenants, vm)
				}
			}
		}

		vm, server, err := cl.Launch()
		if err != nil {
			// Full cluster: churn will free slots; skip this probe.
			continue
		}
		res.Probes++
		trueRack := cl.RackOf(server)
		observed := trueRack
		if !rng.Bool(cfg.OracleAccuracy) {
			observed = rng.Intn(cfg.Racks) // noisy misread
		}
		if squadRack < 0 {
			// Opportunistic: the first observed rack becomes the target.
			squadRack = observed
			res.Rack = squadRack
		}
		if observed == squadRack {
			if _, dup := held[server]; !dup {
				held[server] = vm
				if trueRack != squadRack {
					res.MisidentifiedKept++
				}
				continue // keep it
			}
		}
		cl.Terminate(vm)
	}
	res.Succeeded = len(held) >= cfg.WantServers
	for s := range held {
		res.Servers = append(res.Servers, s)
	}
	return res, nil
}
