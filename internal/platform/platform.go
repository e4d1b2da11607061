// Package platform describes grid testbeds: machines, their processor
// counts and speeds, and their link throughput to the data-holding
// root. It ships the paper's Table 1 testbed and converts platform
// descriptions into the processor lists consumed by the solvers in
// internal/core.
package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cost"
)

// Machine is one computer of the grid, possibly multi-processor.
// The cost constants follow the paper's Table 1 conventions.
type Machine struct {
	// Name is the host name (e.g. "dinadan").
	Name string `json:"name"`
	// CPUs is the number of processors used on this machine; each
	// becomes one MPI process / one core.Processor.
	CPUs int `json:"cpus"`
	// CPUType documents the processor model (e.g. "PIII/933").
	CPUType string `json:"cpuType,omitempty"`
	// Beta is the computation cost in seconds per data item (per ray
	// in the paper), the Table 1 "beta" column. Lower is faster.
	Beta float64 `json:"beta"`
	// Rating is the intuitive speed indication of Table 1: the inverse
	// of Beta normalized to 1 for the reference machine. Zero means
	// "derive from Beta at load time".
	Rating float64 `json:"rating,omitempty"`
	// Alpha is the communication cost in seconds per item from the
	// root machine to this machine (Table 1 "alpha" column); zero for
	// the root itself.
	Alpha float64 `json:"alpha"`
	// CommLatency optionally extends the link model to affine costs:
	// a fixed per-message latency in seconds. The paper found latency
	// negligible on its testbed and used linear costs.
	CommLatency float64 `json:"commLatency,omitempty"`
	// Site names the geographical location, for documentation.
	Site string `json:"site,omitempty"`
}

// Validate checks the machine's fields.
func (m Machine) Validate() error {
	if m.Name == "" {
		return errors.New("platform: machine without a name")
	}
	if m.CPUs <= 0 {
		return fmt.Errorf("platform: machine %s has %d CPUs", m.Name, m.CPUs)
	}
	if m.Beta < 0 || m.Alpha < 0 || m.CommLatency < 0 {
		return fmt.Errorf("platform: machine %s has negative cost constants", m.Name)
	}
	return nil
}

// Platform is a complete grid description.
type Platform struct {
	// Name identifies the platform in reports.
	Name string `json:"name"`
	// Machines lists the member computers.
	Machines []Machine `json:"machines"`
	// Root names the machine holding the input data; its first CPU
	// acts as the root processor.
	Root string `json:"root"`
}

// Validate checks platform consistency: non-empty, unique machine
// names, and a root that exists.
func (p Platform) Validate() error {
	if len(p.Machines) == 0 {
		return errors.New("platform: no machines")
	}
	seen := map[string]bool{}
	rootFound := false
	for _, m := range p.Machines {
		if err := m.Validate(); err != nil {
			return err
		}
		if seen[m.Name] {
			return fmt.Errorf("platform: duplicate machine %s", m.Name)
		}
		seen[m.Name] = true
		if m.Name == p.Root {
			rootFound = true
		}
	}
	if p.Root == "" {
		return errors.New("platform: no root machine")
	}
	if !rootFound {
		return fmt.Errorf("platform: root machine %s not in the machine list", p.Root)
	}
	return nil
}

// Machine returns the machine with the given name.
func (p Platform) Machine(name string) (Machine, bool) {
	for _, m := range p.Machines {
		if m.Name == name {
			return m, true
		}
	}
	return Machine{}, false
}

// commFunction builds the machine's communication cost function: zero
// for the root, linear or affine otherwise.
func (p Platform) commFunction(m Machine) cost.Function {
	if m.Name == p.Root {
		return cost.Zero
	}
	if m.CommLatency > 0 {
		return cost.Affine{Fixed: m.CommLatency, PerItem: m.Alpha}
	}
	return cost.Linear{PerItem: m.Alpha}
}

// Processors expands the platform into one core.Processor per CPU, in
// machine-list order, except that exactly one root CPU is moved to the
// end of the list (the paper's convention: the root processor is Pp).
// Processor names are "machine" or "machine#k" for multi-CPU machines.
func (p Platform) Processors() ([]core.Processor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var procs []core.Processor
	var root *core.Processor
	for _, m := range p.Machines {
		comm := p.commFunction(m)
		for k := 0; k < m.CPUs; k++ {
			name := m.Name
			if m.CPUs > 1 {
				name = fmt.Sprintf("%s#%d", m.Name, k+1)
			}
			proc := core.Processor{
				Name: name,
				Comm: comm,
				Comp: cost.Linear{PerItem: m.Beta},
			}
			if m.Name == p.Root && k == 0 {
				r := proc
				r.Comm = cost.Zero
				root = &r
				continue
			}
			procs = append(procs, proc)
		}
	}
	procs = append(procs, *root)
	return procs, nil
}

// ProcessorsOrdered returns the platform's processors ordered by the
// requested policy (root always last).
func (p Platform) ProcessorsOrdered(policy Ordering) ([]core.Processor, error) {
	procs, err := p.Processors()
	if err != nil {
		return nil, err
	}
	root := len(procs) - 1
	var order []int
	switch policy {
	case OrderAsListed:
		return procs, nil
	case OrderDescendingBandwidth:
		order = core.OrderDecreasingBandwidth(procs, root)
	case OrderAscendingBandwidth:
		order = core.OrderIncreasingBandwidth(procs, root)
	default:
		return nil, fmt.Errorf("platform: unknown ordering %v", policy)
	}
	return core.Permute(procs, order), nil
}

// Ordering selects a processor ordering policy.
type Ordering int

const (
	// OrderAsListed keeps machine-list order (root last).
	OrderAsListed Ordering = iota
	// OrderDescendingBandwidth is the paper's Theorem 3 policy.
	OrderDescendingBandwidth
	// OrderAscendingBandwidth is the adversarial ordering of Figure 4.
	OrderAscendingBandwidth
)

// String names the ordering policy.
func (o Ordering) String() string {
	switch o {
	case OrderAsListed:
		return "as-listed"
	case OrderDescendingBandwidth:
		return "descending-bandwidth"
	case OrderAscendingBandwidth:
		return "ascending-bandwidth"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// MarshalJSON round-trips platforms through the standard codec.
func (p Platform) MarshalJSON() ([]byte, error) {
	type alias Platform
	return json.Marshal(alias(p))
}

// Parse decodes and validates a platform from JSON.
func Parse(data []byte) (Platform, error) {
	var p Platform
	if err := json.Unmarshal(data, &p); err != nil {
		return Platform{}, fmt.Errorf("platform: decode: %w", err)
	}
	// Fill derived ratings.
	ref := 0.0
	if root, ok := p.Machine(p.Root); ok {
		ref = root.Beta
	}
	for i := range p.Machines {
		if p.Machines[i].Rating == 0 && p.Machines[i].Beta > 0 && ref > 0 {
			p.Machines[i].Rating = ref / p.Machines[i].Beta
		}
	}
	if err := p.Validate(); err != nil {
		return Platform{}, err
	}
	return p, nil
}

// Random generates a synthetic heterogeneous platform with the given
// number of machines (1..4 CPUs each), for sweeps and property tests.
// Betas span roughly one decimal order of magnitude, alphas two, which
// matches the spread observed in Table 1.
func Random(rng *rand.Rand, machines int) Platform {
	p := Platform{Name: fmt.Sprintf("random-%d", machines)}
	for i := 0; i < machines; i++ {
		m := Machine{
			Name:  fmt.Sprintf("node%02d", i),
			CPUs:  1 + rng.Intn(4),
			Beta:  0.002 + rng.Float64()*0.02,
			Alpha: 1e-5 * (1 + rng.Float64()*99),
			Site:  fmt.Sprintf("site%d", i%3),
		}
		p.Machines = append(p.Machines, m)
	}
	p.Machines[0].Alpha = 0
	p.Root = p.Machines[0].Name
	return p
}

// RandomTwoSite generates a synthetic two-site grid shaped like the
// paper's testbed: local machines behind a fast LAN (alphas near
// 1e-5 s/item, like the Strasbourg PCs) and remote machines across a
// WAN (alphas a few times higher, like the Montpellier Origin), with
// the data on the first local machine. Betas span the Table 1 range.
func RandomTwoSite(rng *rand.Rand, localMachines, remoteMachines int) Platform {
	p := Platform{Name: fmt.Sprintf("twosite-%d-%d", localMachines, remoteMachines)}
	for i := 0; i < localMachines; i++ {
		p.Machines = append(p.Machines, Machine{
			Name:  fmt.Sprintf("local%02d", i),
			CPUs:  1 + rng.Intn(2),
			Beta:  0.004 + rng.Float64()*0.012,
			Alpha: 1e-5 * (1 + rng.Float64()),
			Site:  "local",
		})
	}
	for i := 0; i < remoteMachines; i++ {
		p.Machines = append(p.Machines, Machine{
			Name:  fmt.Sprintf("remote%02d", i),
			CPUs:  1 + rng.Intn(8),
			Beta:  0.004 + rng.Float64()*0.012,
			Alpha: 3e-5 * (1 + rng.Float64()*3),
			Site:  "remote",
		})
	}
	if len(p.Machines) == 0 {
		p.Machines = append(p.Machines, Machine{Name: "local00", CPUs: 1, Beta: 0.01})
	}
	p.Machines[0].Alpha = 0
	p.Root = p.Machines[0].Name
	return p
}
