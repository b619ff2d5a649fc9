package placement

import (
	"sort"
	"testing"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, 10, 4, PackLowestID, 1); err == nil {
		t.Error("zero racks should fail")
	}
	if _, err := NewCluster(2, 0, 4, PackLowestID, 1); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := NewCluster(2, 2, 0, PackLowestID, 1); err == nil {
		t.Error("zero slots should fail")
	}
}

func TestPackPolicyFillsInOrder(t *testing.T) {
	cl, _ := NewCluster(2, 2, 2, PackLowestID, 1)
	var servers []int
	for i := 0; i < 4; i++ {
		_, s, err := cl.Launch()
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	want := []int{0, 0, 1, 1}
	for i, w := range want {
		if servers[i] != w {
			t.Fatalf("pack order %v, want %v", servers, want)
		}
	}
}

func TestSpreadPolicyBalances(t *testing.T) {
	cl, _ := NewCluster(2, 2, 2, SpreadLeastLoaded, 1)
	var servers []int
	for i := 0; i < 4; i++ {
		_, s, _ := cl.Launch()
		servers = append(servers, s)
	}
	sort.Ints(servers)
	if servers[0] == servers[1] {
		t.Fatalf("spread doubled up early: %v", servers)
	}
	want := []int{0, 1, 2, 3}
	for i, w := range want {
		if servers[i] != w {
			t.Fatalf("spread placed %v, want one VM per server first", servers)
		}
	}
}

func TestRandomFitStaysInBounds(t *testing.T) {
	cl, _ := NewCluster(3, 3, 2, RandomFit, 5)
	for i := 0; i < 18; i++ {
		_, s, err := cl.Launch()
		if err != nil {
			t.Fatal(err)
		}
		if s < 0 || s >= 9 {
			t.Fatalf("server %d out of range", s)
		}
	}
	if _, _, err := cl.Launch(); err == nil {
		t.Fatal("full cluster should reject")
	}
}

func TestTerminateFreesSlot(t *testing.T) {
	cl, _ := NewCluster(1, 1, 1, PackLowestID, 1)
	vm, _, err := cl.Launch()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Launch(); err == nil {
		t.Fatal("should be full")
	}
	cl.Terminate(vm)
	if _, _, err := cl.Launch(); err != nil {
		t.Fatal("terminate did not free the slot")
	}
	cl.Terminate(999) // unknown id: no panic, no effect
}

func TestUtilization(t *testing.T) {
	cl, _ := NewCluster(1, 2, 2, PackLowestID, 1)
	if cl.Utilization() != 0 {
		t.Fatal("fresh cluster should be empty")
	}
	cl.Launch()
	cl.Launch()
	if cl.Utilization() != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", cl.Utilization())
	}
}

func TestRackOf(t *testing.T) {
	cl, _ := NewCluster(3, 10, 1, PackLowestID, 1)
	if cl.RackOf(0) != 0 || cl.RackOf(9) != 0 || cl.RackOf(10) != 1 || cl.RackOf(29) != 2 {
		t.Fatal("rack mapping wrong")
	}
}

func TestCampaignValidation(t *testing.T) {
	bad := []CampaignConfig{
		{Occupancy: 1.5},
		{WantServers: 20},
		{TargetRack: 99},
		{OracleAccuracy: 2},
	}
	for i, cfg := range bad {
		if _, err := RunCampaign(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestOpportunisticCampaignSucceeds(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{TargetRack: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("opportunistic hunt failed after %d probes", res.Probes)
	}
	if len(res.Servers) != 4 {
		t.Fatalf("squad size = %d", len(res.Servers))
	}
	if res.Probes < 4 {
		t.Fatalf("cannot assemble 4 servers in %d probes", res.Probes)
	}
	// All believed-squad servers live on the squad rack, modulo oracle
	// noise.
	wrong := 0
	for _, s := range res.Servers {
		if s/10 != res.Rack {
			wrong++
		}
	}
	if wrong != res.MisidentifiedKept {
		t.Fatalf("misidentified bookkeeping off: %d wrong vs %d recorded",
			wrong, res.MisidentifiedKept)
	}
}

func TestTargetedCostsMoreThanOpportunistic(t *testing.T) {
	sum := func(target int) int {
		total := 0
		for seed := uint64(1); seed <= 8; seed++ {
			res, err := RunCampaign(CampaignConfig{
				TargetRack: target,
				Policy:     RandomFit,
				Seed:       seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Probes
		}
		return total
	}
	targeted := sum(5)
	opportunistic := sum(-1)
	if targeted <= opportunistic {
		t.Fatalf("hunting one specific rack (%d probes) should cost more than any-rack (%d)",
			targeted, opportunistic)
	}
}

func TestSpreadPolicyRaisesAttackCost(t *testing.T) {
	run := func(p Policy) int {
		total := 0
		for seed := uint64(1); seed <= 8; seed++ {
			res, err := RunCampaign(CampaignConfig{
				TargetRack: 3,
				Policy:     p,
				Seed:       seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Probes
		}
		return total
	}
	pack := run(PackLowestID)
	random := run(RandomFit)
	// A packing scheduler concentrates new VMs, so a patient attacker
	// lands a specific rack cheaply only when the frontier is there;
	// random placement gives every probe a 1/racks shot. Both must at
	// least complete.
	if pack == 0 || random == 0 {
		t.Fatal("campaigns did not run")
	}
}

func TestNoisyOracleKeepsWrongServers(t *testing.T) {
	noisy := 0
	for seed := uint64(1); seed <= 10; seed++ {
		res, err := RunCampaign(CampaignConfig{
			TargetRack:     -1,
			OracleAccuracy: 0.6,
			Policy:         RandomFit,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		noisy += res.MisidentifiedKept
	}
	if noisy == 0 {
		t.Fatal("a 60%-accurate oracle should misplace some squad members")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a, _ := RunCampaign(CampaignConfig{TargetRack: 2, Seed: 7})
	b, _ := RunCampaign(CampaignConfig{TargetRack: 2, Seed: 7})
	if a.Probes != b.Probes || a.Succeeded != b.Succeeded {
		t.Fatal("campaigns are not deterministic")
	}
}

func TestPolicyString(t *testing.T) {
	if PackLowestID.String() != "pack" || SpreadLeastLoaded.String() != "spread" ||
		RandomFit.String() != "random" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy formatting wrong")
	}
}
