package main

import (
	"encoding/json"
	"fmt"
	"math"

	"rushprobe"
	"rushprobe/internal/contact"
	"rushprobe/internal/dist"
	"rushprobe/internal/model"
	"rushprobe/internal/rng"
	"rushprobe/internal/scenario"
	"rushprobe/internal/simtime"
)

// Every input the harness sends is a pure function of the seed: the
// population, each node's contact stream, the batching, and the read
// targets. The daemon under test only ever sees the generated bytes.

const (
	// An observe batch carries a few contacts from each of batchNodes
	// nodes: what a collector forwards after passing them.
	batchNodes = 16

	// conns is the client's connection count (nproc of the box the
	// benchmark was sized on). A node's batches always travel on
	// connection index%conns, which keeps every node's reports in order.
	conns = 2

	daySeconds = 86400
)

// mobilityClass is one kind of node in the population: which hourly
// slots are its rush hours, and its mean contact interval inside and
// outside them. A scheduled class (delivery rounds, night buses) passes
// at fixed intervals, so its nodes learn identical profiles whenever
// their parameters match and share cached plans; the others arrive at
// random and every node learns a profile of its own.
type mobilityClass struct {
	name          string
	rush          []int
	rushInterval  float64
	otherInterval float64
	length        float64
	scheduled     bool
}

// classes spans the properties the fleet's cost depends on: rush-hour
// contrast (how peaked the learned profile is), where the rush sits in
// the day, contact volume, and how much the plan cache is shared.
var classes = []mobilityClass{
	{name: "commuter", rush: []int{7, 8, 17, 18}, rushInterval: 300, otherInterval: 3600, length: 2},
	{name: "delivery", rush: []int{9, 10, 11, 12, 13, 14, 15, 16}, rushInterval: 600, otherInterval: 7200, length: 3, scheduled: true},
	{name: "night", rush: []int{22, 23, 0, 1}, rushInterval: 300, otherInterval: 3600, length: 1.5, scheduled: true},
	{name: "low-contrast", rush: []int{11, 12, 13, 14}, rushInterval: 900, otherInterval: 1200, length: 2},
}

// node is one member of the population with its private contact
// stream. next is the contact the stream will emit next.
type node struct {
	index int32
	id    string
	class int
	rh    bool // served SNIP-RH instead of the fleet default SNIP-OPT
	// phase, a share of a day, staggers where the node's history ends,
	// so the population's clocks cross epoch boundaries at a steady rate
	// instead of all at once.
	phase float64
	gen   *contact.Generator
	next  contact.Contact
}

// obs is one generated report in compact form. Naming the node by its
// index keeps the run's inputs — millions of reports — free of
// pointers, so the harness's garbage collector never scans them.
type obs struct {
	node         int32
	time, length float64
}

// observation turns the node's pending contact into a report and
// advances the stream.
func (n *node) observation() obs {
	c := n.next
	n.next, _ = n.gen.Next()
	return obs{node: n.index, time: c.Start.Seconds(), length: c.Length.Seconds()}
}

// classScenario builds a node's contact process: its class with the
// rush window shifted by up to one slot either way, both intervals and
// the contact length jittered by up to 20% (in three steps for a
// scheduled class). A node's contacts all last the same time, so its
// learned mean length — part of the plan-cache key — settles, and the
// plans it is served change when its learned slot capacities move at
// epoch boundaries.
func classScenario(c mobilityClass, src *rng.Stream) *scenario.Scenario {
	shift := src.Intn(3) - 1
	jitter := func(v float64) float64 { return src.Jitter(v, 0.2) }
	interval := func(v float64) dist.Sampler { return dist.NormalTenth(v) }
	if c.scheduled {
		jitter = func(v float64) float64 { return v * (0.8 + 0.2*float64(src.Intn(3))) }
		interval = func(v float64) dist.Sampler { return dist.Fixed{Value: v} }
	}
	rushIv := jitter(c.rushInterval)
	otherIv := jitter(c.otherInterval)
	length := dist.Fixed{Value: jitter(c.length)}
	slots := make([]scenario.Slot, 24)
	for i := range slots {
		slots[i] = scenario.Slot{Interval: interval(otherIv), Length: length}
	}
	for _, r := range c.rush {
		i := ((r+shift)%24 + 24) % 24
		slots[i].Interval = interval(rushIv)
		slots[i].RushHour = true
	}
	return &scenario.Scenario{
		Name:       c.name,
		Epoch:      simtime.Day,
		Slots:      slots,
		Radio:      model.DefaultConfig(),
		PhiMax:     daySeconds / 1000.0,
		ZetaTarget: 24,
		UploadRate: scenario.DefaultUploadRate,
	}
}

// population is the seeded node set.
type population struct {
	nodes []*node
}

func nodeID(i int) string { return fmt.Sprintf("n%05d", i) }

// newPopulation draws n nodes. Node i's class, jitter, and contacts all
// come from rng.DeriveN(seed, "bench", i); odd nodes run SNIP-RH.
func newPopulation(seed uint64, n int) (*population, error) {
	p := &population{nodes: make([]*node, n)}
	for i := range p.nodes {
		src := rng.DeriveN(seed, "bench", i)
		class := src.Intn(len(classes))
		phase := src.Float64()
		gen, err := contact.NewGenerator(classScenario(classes[class], src), src)
		if err != nil {
			return nil, err
		}
		nd := &node{index: int32(i), id: nodeID(i), class: class, rh: i%2 == 1, phase: phase, gen: gen}
		nd.next, _ = gen.Next()
		p.nodes[i] = nd
	}
	return p, nil
}

// batch is one observe request: the reports and their exact wire body.
type batch struct {
	obs  []obs
	body []byte
}

type observeBody struct {
	Observations []rushprobe.Observation `json:"observations"`
}

// observation expands a compact report into the wire and library form.
func (p *population) observation(o obs) rushprobe.Observation {
	return rushprobe.Observation{
		Node:     p.nodes[o.node].id,
		Time:     o.time,
		Length:   o.length,
		Uploaded: math.Round(o.length * 10000),
	}
}

// observations expands compact reports, reusing dst.
func (p *population) observations(reports []obs, dst []rushprobe.Observation) []rushprobe.Observation {
	dst = dst[:0]
	for _, o := range reports {
		dst = append(dst, p.observation(o))
	}
	return dst
}

func (p *population) newBatch(reports []obs) (batch, error) {
	body, err := json.Marshal(observeBody{Observations: p.observations(reports, nil)})
	return batch{obs: reports, body: body}, err
}

// history drains every node's contacts of its first days plus its
// phase, node by node. Set-up folds it into the fleet in-process, so it
// never travels as JSON.
func (p *population) history(days float64) []obs {
	var out []obs
	for _, nd := range p.nodes {
		horizon := (days + nd.phase) * daySeconds
		for nd.next.Start.Seconds() < horizon {
			out = append(out, nd.observation())
		}
	}
	return out
}

// streamer cuts the live observation stream of one connection's nodes
// into batches: each batch takes perNode contacts from each of the next
// batchNodes nodes in round-robin order.
type streamer struct {
	pop     *population
	group   []*node
	pos     int
	perNode int
}

func (p *population) streamers(perNode int) [conns]*streamer {
	var out [conns]*streamer
	for c := range out {
		s := &streamer{pop: p, perNode: perNode}
		for i := c; i < len(p.nodes); i += conns {
			s.group = append(s.group, p.nodes[i])
		}
		out[c] = s
	}
	return out
}

func (s *streamer) take(n int) ([]batch, error) {
	out := make([]batch, n)
	for b := range out {
		cur := make([]obs, 0, batchNodes*s.perNode)
		for k := 0; k < batchNodes; k++ {
			nd := s.group[s.pos%len(s.group)]
			s.pos++
			for j := 0; j < s.perNode; j++ {
				cur = append(cur, nd.observation())
			}
		}
		var err error
		if out[b], err = s.pop.newBatch(cur); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fillerObservations is the synthetic history of a bulk node in the
// restart workload's large fleet: eight contacts a day over four days,
// so three epochs complete and the node graduates from bootstrap.
// It is a cheap hash of (seed, node) so a large fleet builds quickly.
func fillerObservations(seed uint64, i int, dst []rushprobe.Observation) []rushprobe.Observation {
	id := fillerID(i)
	h := splitmix(seed ^ uint64(i)*0x9e3779b97f4a7c15)
	for d := 0; d < 4; d++ {
		for k := 0; k < 8; k++ {
			h = splitmix(h)
			slot := float64((k*3 + int(h%3)) % 24)
			dst = append(dst, rushprobe.Observation{
				Node:     id,
				Time:     float64(d)*daySeconds + slot*3600 + float64(h>>40%3000),
				Length:   1 + float64(h>>20%3000)/1000,
				Uploaded: float64(h >> 50 % 20000),
			})
		}
	}
	return dst
}

func fillerID(i int) string { return fmt.Sprintf("f%07d", i) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// readPicker draws the targets of the schedule streams.
type readPicker struct {
	src  *rng.Stream
	n    int
	cold bool
}

// node returns one read target: a population node, or with cold set a
// never-seen ID (a newly deployed node asking for its first plan).
func (r *readPicker) node() string {
	i := r.src.Intn(r.n)
	if r.cold {
		return fmt.Sprintf("c%05d", i)
	}
	return nodeID(i)
}

func (r *readPicker) nodes(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = r.node()
	}
	return out
}
