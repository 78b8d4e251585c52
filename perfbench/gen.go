package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/graph"
	"anonradio/internal/radio"
)

// corpus is one workload's generated input: configuration texts (the only
// thing the program under test receives) and the reference outcome of each,
// computed in process before anything is timed.
type corpus struct {
	keys  []string // keys[i] starts out holding texts[i]
	texts []string // [0, len(keys)) initial keyspace, then the shape-change pool
	ref   []outcome
	// bad holds infeasible configurations (family S) the churn writer
	// submits under fresh keys and expects to see refused.
	bad []string
}

// outcome is what a correct election of one configuration returns.
type outcome struct{ leader, rounds int }

// golden is the fractional part of the golden ratio; slot j of a family
// draws its size from frac((j+0.5)·golden), a low-discrepancy sequence, so
// every seed sees the same multiset of sizes and consecutive slots spread
// over the whole size range.
const golden = 0.6180339887498949

// slotShape returns the family (0 staggered clique, 1 staggered path,
// 2 random graph) and size of slot i of a stratified corpus.
func slotShape(i, nMin, nMax int) (family, n int) {
	j := float64(i / 3)
	frac := math.Mod((j+0.5)*golden, 1)
	return i % 3, nMin + int(frac*float64(nMax-nMin+1))
}

// genConfig builds one configuration of the given family and size. The
// seed picks node labels and tags, and the random family's edges; the
// family and size stay fixed per slot.
func genConfig(family, n int, rng *rand.Rand) *config.Config {
	switch family {
	case 0: // staggered clique: distinct tags on a complete graph
		return config.MustNew(graph.Complete(n), rng.Perm(n))
	case 1: // staggered path with relabelled nodes: tag i at the i-th path node
		perm := rng.Perm(n)
		g := graph.New(n)
		tags := make([]int, n)
		for i := 0; i < n; i++ {
			tags[perm[i]] = i
			if i > 0 {
				g.AddEdge(perm[i-1], perm[i])
			}
		}
		return config.MustNew(g, tags)
	default: // sparse random connected graph with distinct tags
		return config.Random(n, 3/float64(n), config.DistinctRandomTags{}, rng)
	}
}

// infeasibleConfigs is how many configurations of family S (S_1, S_2, ...)
// the churn writer cycles through.
const infeasibleConfigs = 6

// generate builds a corpus of keys initial configurations plus alts
// shape-change configurations with sizes in [nMin, nMax], and the
// infeasible ones.
func generate(seed int64, keys, alts, nMin, nMax int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{keys: make([]string, keys), texts: make([]string, keys+alts)}
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf("k%05d", i)
	}
	for i := range c.texts {
		family, n := slotShape(i, nMin, nMax)
		c.texts[i] = genConfig(family, n, rng).Marshal()
	}
	for m := 1; m <= infeasibleConfigs; m++ {
		c.bad = append(c.bad, config.SymmetricFamilyS(m).Marshal())
	}
	return c
}

// reference computes every configuration's outcome in process: parse the
// text, build the dedicated algorithm, run one election and verify it. It
// runs on at most two goroutines and keeps no algorithm alive afterwards.
func (c *corpus) reference() error {
	c.ref = make([]outcome, len(c.texts))
	workers := min(2, runtime.GOMAXPROCS(0))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(c.texts); i += workers {
				d, err := buildText(c.texts[i])
				if err == nil {
					c.ref[i], err = electRef(d)
				}
				if err != nil {
					errs[w] = fmt.Errorf("reference for configuration %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func buildText(text string) (*election.Dedicated, error) {
	cfg, err := config.Unmarshal(text)
	if err != nil {
		return nil, err
	}
	return election.BuildDedicated(cfg)
}

func electRef(d *election.Dedicated) (outcome, error) {
	var out radio.ElectionOutcome
	if err := d.ElectInto(&out, radio.Options{}); err != nil {
		return outcome{}, err
	}
	if err := d.Verify(&out); err != nil {
		return outcome{}, err
	}
	return outcome{leader: out.Leader(), rounds: out.Rounds}, nil
}
