package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/modelcheck"
	"github.com/manetlab/ldr/internal/resilience"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// workers is the sweep's worker count: at most two, the core count of
// the reference host, so load comes from one process the way ldrbench
// and ldrchaos run by default there.
var workers = min(2, runtime.NumCPU())

// workload is one named input set. All three are closed-loop batches:
// every worker takes the next cell as soon as its last one finishes.
//
// A run's cell set is fixed by its seed and its --seconds: the set is a
// whole number of rounds, sized so that on the reference host (2 vCPU,
// 2.1 GHz Xeon) the sweep takes about --seconds. Fixing the set rather
// than stopping on a clock keeps every simulated count, the result
// digest and the percentile ranks identical between runs of one seed.
type workload struct {
	name string
	// roundCells is the number of cells in one round; roundSeconds the
	// round's wall time with two workers on the reference host.
	roundCells   int
	roundSeconds float64
	// batchRounds is how many rounds one sweep call runs.
	batchRounds int
	// setup generates the cells of the given number of rounds from the
	// seed, and opens the sweep journal under dir when the workload is
	// journaled.
	setup func(seed int64, rounds int, dir string) (*plan, error)
}

// plan is a workload's generated input: scenario cells for the sweep
// workloads, model-check cells for modelcheck-ldr.
type plan struct {
	cfgs   []scenario.Config
	checks []mcCell
	batch  int               // cells per sweep call
	exec   sweep.ExecOptions // journal, timeout and keep-going settings
	openS  float64           // time spent in resilience.Open
}

// mcCell is one bounded model-check exploration.
type mcCell struct {
	graph modelcheck.Graph
	seed  int64
	opts  modelcheck.Options
}

// cells returns how many cells the plan holds.
func (p *plan) cells() int { return len(p.cfgs) + len(p.checks) }

var workloads = map[string]workload{
	"paper50":        {name: "paper50", roundCells: 12, roundSeconds: 3.0, batchRounds: 1, setup: setupPaper50},
	"storm-audit":    {name: "storm-audit", roundCells: 4, roundSeconds: 3.0, batchRounds: 2, setup: setupStormAudit},
	"modelcheck-ldr": {name: "modelcheck-ldr", roundCells: 5, roundSeconds: 5.6, batchRounds: 1, setup: setupModelCheck},
}

// rounds sizes a run: enough rounds to fill seconds on the reference
// host, never fewer than 2·tailBeyond+1 cells, so cell_s.tail exists,
// and whole batches only.
func (w workload) rounds(seconds int) int {
	r := max(int(math.Round(float64(seconds)/w.roundSeconds)), 2*tailBeyond/w.roundCells+1)
	return (r + w.batchRounds - 1) / w.batchRounds * w.batchRounds
}

// plan generates a run's cells, batched for the sweep.
func (w workload) plan(seed int64, rounds int, dir string) (*plan, error) {
	p, err := w.setup(seed, rounds, dir)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	p.batch = w.batchRounds * w.roundCells
	return p, nil
}

// seeder draws the per-cell scenario seeds of one run. Seeds never
// repeat within a run: the journal deduplicates identical cells, which
// would silently skip work.
type seeder struct {
	r    *rand.Rand
	seen map[int64]bool
}

func newSeeder(seed int64) *seeder {
	return &seeder{r: rand.New(rand.NewPCG(uint64(seed), 0x6c6472)), seen: map[int64]bool{}}
}

func (s *seeder) next() int64 {
	for {
		v := s.r.Int64N(1<<31-1) + 1
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// paper50SimTime is the simulated length of a paper50 cell. The paper
// simulates 900 s; 30 s keeps a 30-flow cell near 1 s of host time, so a
// 25 s run holds ~100 cells: enough for a tail percentile, and for the
// run-to-run spread of the median and the tail to stay small.
const paper50SimTime = 30 * time.Second

// setupPaper50 builds the paper's 50-node 1500×300 m random-waypoint
// CBR cells. A round runs every protocol once at 30 flows and twice at
// 10: the 10-flow cells at pause 0 (constant motion) and pause = sim
// time (static), the 30-flow cells of LDR and AODV at one pause and of
// DSR and OLSR at the other, swapped each round. Two rounds hold every
// protocol × flows × pause cell of the paper's grid, the 10-flow ones
// twice, and every round costs about the same, so the batch throughputs
// cells_per_s takes the median of are alike. The 30-flow cells cost ~4×
// the 10-flow ones; at the 2:1 mix the median falls inside the 10-flow
// cluster and the tail inside the 30-flow one. Heavy cells come first in
// each round, as a scheduler would order them. Every cell has a seed of
// its own: a cell's cost depends on its node movement, and sharing seeds
// across protocols would leave a run only a handful of movement
// patterns to average over.
func setupPaper50(seed int64, rounds int, _ string) (*plan, error) {
	s := newSeeder(seed)
	p := &plan{}
	add := func(proto scenario.ProtocolName, flows int, pause time.Duration) {
		cfg := scenario.Nodes50(proto, flows, pause, s.next())
		cfg.SimTime = paper50SimTime
		p.cfgs = append(p.cfgs, cfg)
	}
	pauses := []time.Duration{0, paper50SimTime}
	for r := 0; r < rounds; r++ {
		for k, proto := range scenario.AllProtocols {
			add(proto, 30, pauses[(r+k/2)%2])
		}
		for _, pause := range pauses {
			for _, proto := range scenario.AllProtocols {
				add(proto, 10, pause)
			}
		}
	}
	return p, nil
}

// stormSimTime is the simulated length of a storm-audit cell; at 10 s a
// cell costs ~1.4 s of host time. Both profiles scale with it: the storm
// starts at 10% and floods every 100 ms, reboots start at 10% and recur
// every 2 s.
const stormSimTime = 10 * time.Second

// setupStormAudit builds LDR and AODV cells of 50 nodes and 10 flows
// under the storm adversary and the reboot fault profile, with the
// continuous auditor on, journaled with keep-going and a cell timeout
// the way the nightly ldrchaos sweep runs. A round is both protocols at
// pause 0 and static, each cell on a seed of its own.
func setupStormAudit(seed int64, rounds int, dir string) (*plan, error) {
	adv, err := adversary.Profile("storm", 50, stormSimTime)
	if err != nil {
		return nil, err
	}
	flt, err := fault.Profile("reboot", 50, stormSimTime)
	if err != nil {
		return nil, err
	}
	s := newSeeder(seed)
	p := &plan{}
	for r := 0; r < rounds; r++ {
		for _, pause := range []time.Duration{0, stormSimTime} {
			for _, proto := range []scenario.ProtocolName{scenario.LDR, scenario.AODV} {
				cfg := scenario.Nodes50(proto, 10, pause, s.next())
				cfg.SimTime = stormSimTime
				cfg.AdversaryPlan = &adv
				cfg.FaultPlan = &flt
				cfg.AuditCadence = 100 * time.Millisecond
				p.cfgs = append(p.cfgs, cfg)
			}
		}
	}
	t0 := time.Now()
	j, err := resilience.Open(dir)
	p.openS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	p.exec = sweep.ExecOptions{Journal: j, Scope: "storm-audit", CellTimeout: time.Minute, KeepGoing: true}
	return p, nil
}

// mcGraphs are one round of model-checked topologies, heaviest first:
// the 4-node ring, star (twice) and line and the 3-node line. They are
// the connected 3- and 4-node graphs LDR explores in 1–3 s each at the
// ldrbench -exp modelcheck budgets; the triangle and the denser 4-node
// graphs take 10–70 s, too long for a run to hold a tail of them. The
// star runs twice so that the median and the tail both fall inside its
// cluster of cell times rather than on a gap between two graphs.
var mcGraphs = []string{"n4-3", "n4-0", "n4-0", "n4-1", "n3-0"}

// mcOptions are ldrbench -exp modelcheck's budgets: three-node graphs
// get a crash and a loss per schedule, four-node graphs a crash and two
// fewer levels of depth.
func mcOptions(n int) modelcheck.Options {
	if n <= 3 {
		return modelcheck.Options{MaxDepth: 12, MaxResets: 1, MaxDrops: 1}
	}
	return modelcheck.Options{MaxDepth: 10, MaxResets: 1}
}

// setupModelCheck enumerates the connected 3- and 4-node graphs and
// builds one LDR exploration per graph per round, each on a jitter seed
// of its own.
func setupModelCheck(seed int64, rounds int, _ string) (*plan, error) {
	byName := map[string]modelcheck.Graph{}
	for _, n := range []int{3, 4} {
		gs, err := modelcheck.ConnectedGraphs(n)
		if err != nil {
			return nil, err
		}
		for _, g := range gs {
			byName[g.Name] = g
		}
	}
	s := newSeeder(seed)
	p := &plan{}
	for r := 0; r < rounds; r++ {
		for _, name := range mcGraphs {
			g, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("modelcheck-ldr: graph %s not enumerated", name)
			}
			p.checks = append(p.checks, mcCell{graph: g, seed: s.next(), opts: mcOptions(g.N)})
		}
	}
	return p, nil
}

// setupWindow is how long one setupTimer.group sets up.
const setupWindow = 400 * time.Millisecond

// setupTimer times set-ups of a workload spread over a run. Before the
// untraced pass's first batch sweep and after each, with no cell
// running, it sets the workload up again and again for setupWindow,
// each time on a freshly collected heap. setup_s is the median of all
// these set-ups.
//
// A set-up takes tens to hundreds of microseconds, so one reading
// follows the host's speed in that instant; the windows sample the host
// at as many moments as the run has batch sweeps, plus one. Set-ups run
// back to back allocate enough to keep the collector busy, and the
// model-check set-up alone starts it, so readings taken without a
// collection first split into two modes ~2× apart by whether it was
// marking.
type setupTimer struct {
	w      workload
	seed   int64
	rounds int
	base   string

	took  []float64 // per set-up, seconds
	opens []float64 // per set-up, seconds in resilience.Open
}

// group sets the workload up for setupWindow, each time after a garbage
// collection and on a fresh journal that is removed again.
func (s *setupTimer) group() error {
	dir := filepath.Join(s.base, "journal-setup")
	for start := time.Now(); time.Since(start) < setupWindow; {
		runtime.GC()
		t0 := time.Now()
		p, err := s.w.plan(s.seed, s.rounds, dir)
		took := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if p.exec.Journal != nil {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		s.took = append(s.took, took)
		s.opens = append(s.opens, p.openS)
	}
	return nil
}
