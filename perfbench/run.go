package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anonradio/internal/election"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wal"
)

// params select one run.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// shrink divides the keyspace and the shape-change pool; 1 for real
	// runs, larger in the self-tests.
	shrink int
	dir    string    // scratch directory for journals, snapshots and crash images
	spans  string    // file the traced run writes its spans to
	log    io.Writer // progress notes
	// corrupt, when set, tampers with the reference outcomes before any
	// request is made (the self-tests use it to trip the correctness gate).
	corrupt func(ref []outcome)
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	p   params
	w   workload
	c   *corpus
	cur []int // configuration index each key holds; only the writer changes it
	cl  *cluster
	tr  *tracer
	out map[string]float64

	attempted, failed atomic.Int64
	mu                sync.Mutex
	problems          []string // violated exact-count and key-set assertions

	ledger ledger // durable workload: the journal since the last checkpoint
	peak   uint64 // largest live heap seen at a phase boundary
}

// set records a measured value; names outside the reported set are
// ignored, so a run measures the same way in both modes.
func (b *bench) set(name string, v float64) { b.out[name] = v }

func (b *bench) logf(format string, args ...any) {
	if b.p.log != nil {
		fmt.Fprintf(b.p.log, format+"\n", args...)
	}
}

// problem records a violated assertion; it makes the run incorrect.
func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(ok bool) bool {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
	}
	return ok
}

// match reports whether a served outcome equals key k's reference.
func (b *bench) match(o server.Outcome, k int) bool {
	want := b.c.ref[b.cur[k]]
	return o.Error == "" && o.Elected && o.Key == b.c.keys[k] && o.Leader == want.leader && o.Rounds == want.rounds
}

func run(p params) (*result, error) {
	w, ok := lookup(p.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	if p.shrink > 1 {
		w.keys = max(w.keys/p.shrink, 8)
		w.alts = max(w.alts/p.shrink, 4)
	}
	b := &bench{p: p, w: w, tr: newTracer(), out: make(map[string]float64)}
	b.c = generate(p.seed, w.keys, w.alts, w.nMin, w.nMax)
	if err := b.c.reference(); err != nil {
		return nil, err
	}
	if p.corrupt != nil {
		p.corrupt(b.c.ref)
	}
	b.logf("%s seed %d: %d keys, %d shape-change configs, reference outcomes computed; files on %s",
		w.name, p.seed, w.keys, w.alts, fsType(p.dir))

	settleDisk()
	reps := 3
	if p.trace {
		reps = 1
	}
	if err := b.setup(reps); err != nil {
		return nil, err
	}
	defer func() {
		if b.cl != nil {
			b.cl.close()
		}
	}()

	var recovery func() (float64, error)
	var err error
	if w.durable {
		recovery, err = b.churnPhases()
	} else {
		recovery, err = b.servePhases()
	}
	if err != nil {
		return nil, err
	}
	if p.trace {
		if err := b.traced(); err != nil {
			return nil, err
		}
	}
	b.cl.close()
	b.cl = nil
	rs, err := recovery()
	if err != nil {
		return nil, err
	}
	b.set("recover_s", rs)
	b.set("mem_peak_mb", float64(b.peak)/(1<<20))

	res := &result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: make(map[string]metric)}
	for _, def := range metricDefs(p.trace) {
		v, ok := b.out[def.name]
		if !ok && !(strings.HasPrefix(def.name, "wal.") && !w.durable) {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	for _, pr := range b.problems {
		b.logf("ASSERTION FAILED: %s", pr)
	}
	res.Correct = res.Failed == 0 && len(b.problems) == 0
	return res, nil
}

// openRegistries opens the workload's node registries under dir.
func (b *bench) openRegistries(dir string) ([]*service.Registry, error) {
	regs := make([]*service.Registry, b.w.nodes)
	for i := range regs {
		if !b.w.durable {
			regs[i] = service.New(service.Options{})
			continue
		}
		reg, _, err := service.Open(walOptions(filepath.Join(dir, fmt.Sprintf("node-%d", i))))
		if err != nil {
			for _, r := range regs[:i] {
				r.Close()
			}
			return nil, err
		}
		regs[i] = reg
	}
	return regs, nil
}

// walOptions is the durable node's configuration: sync policy always (every
// acknowledged write is on stable storage) and automatic checkpoint pacing.
func walOptions(dir string) service.Options {
	return service.Options{WAL: service.WALOptions{Dir: dir, Sync: wal.SyncAlways}}
}

// setup boots the nodes and admits the full keyspace, reps times from
// scratch, and reports the median as setup_s. The last cluster stays up.
func (b *bench) setup(reps int) error {
	var times []float64
	heapBefore := liveHeap()
	for r := 0; r < reps; r++ {
		if b.cl != nil {
			b.cl.close()
			b.cl = nil
			if err := os.RemoveAll(filepath.Join(b.p.dir, fmt.Sprintf("setup-%d", r-1))); err != nil {
				return err
			}
			runtime.GC() // each set-up starts without the last one's garbage
			settleDisk()
		}
		b.cur = make([]int, b.w.keys)
		for i := range b.cur {
			b.cur[i] = i
		}
		b.ledger = ledger{}
		start := time.Now()
		regs, err := b.openRegistries(filepath.Join(b.p.dir, fmt.Sprintf("setup-%d", r)))
		if err != nil {
			return err
		}
		if b.cl, err = boot(regs, b.w.routed, b.tr); err != nil {
			for _, reg := range regs {
				reg.Close()
			}
			return err
		}
		b.admitAll()
		times = append(times, time.Since(start).Seconds())
	}
	b.set("setup_s", median(times))
	heapAfter := b.notePeak()
	b.set("mem.heap_live_mb", float64(heapAfter)/(1<<20))
	b.set("mem.bytes_per_key", float64(int64(heapAfter)-int64(heapBefore))/float64(b.w.keys))
	b.logf("setup: %d reps %.3f, median %.3fs", reps, times, median(times))
	return nil
}

// admitAll registers every key with its initial configuration from two
// client goroutines.
func (b *bench) admitAll() {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.w.keys; i += 2 {
				_, err := b.cl.client.Register(b.c.keys[i], b.c.texts[i])
				b.op(err == nil)
			}
		}(g)
	}
	wg.Wait()
	if b.w.durable {
		b.ledger.setupAdmits(b.w.keys)
	}
}

// reads collects what the readers measured.
type reads struct {
	elect, batch []float64 // latencies, µs
	elections    int64     // single elections plus batched keys
	rounds       int64     // rounds of the verified outcomes
}

func (r *reads) merge(o *reads) {
	r.elect = append(r.elect, o.elect...)
	r.batch = append(r.batch, o.batch...)
	r.elections += o.elections
	r.rounds += o.rounds
}

// picker draws key indices, uniformly from a pool, and shape-change
// configurations for one client.
type picker struct {
	rng  *rand.Rand
	pool []int
	alts []int // shape-change configurations, in the order they are used
	next int
}

func (b *bench) picker(stream int64, pool []int) *picker {
	rng := rand.New(rand.NewSource(b.p.seed*1_000_003 + stream))
	pk := &picker{rng: rng, pool: pool}
	for _, i := range rng.Perm(b.w.alts) {
		pk.alts = append(pk.alts, b.w.keys+i)
	}
	return pk
}

func (pk *picker) key() int { return pk.pool[pk.rng.Intn(len(pk.pool))] }

// alt returns the next shape-change configuration: a seeded order that
// uses every configuration of the pool once per round, so each seed
// admits the same mix of sizes.
func (pk *picker) alt() int {
	a := pk.alts[pk.next%len(pk.alts)]
	pk.next++
	return a
}

// read issues the j-th read of a client: a batch election every
// batchEvery-th read, otherwise a single one. It verifies every outcome and
// returns whether it was a batch and the keys it read.
func (b *bench) read(pk *picker, j int, r *reads) (batch bool, idx []int) {
	if b.w.batchEvery > 0 && j%b.w.batchEvery == b.w.batchEvery-1 {
		idx = make([]int, b.w.batchSize)
		keys := make([]string, len(idx))
		for i := range idx {
			idx[i] = pk.key()
			keys[i] = b.c.keys[idx[i]]
		}
		start := time.Now()
		resp, err := b.cl.client.ElectBatch(keys)
		lat := time.Since(start)
		b.traceClient(start, lat)
		ok := err == nil && resp.Failures == 0 && len(resp.Outcomes) == len(keys)
		for i := 0; ok && i < len(idx); i++ {
			ok = b.match(resp.Outcomes[i], idx[i])
			r.rounds += int64(resp.Outcomes[i].Rounds)
		}
		if b.op(ok) {
			r.batch = append(r.batch, us(lat))
			r.elections += int64(len(keys))
		}
		return true, idx
	}
	k := pk.key()
	start := time.Now()
	out, err := b.cl.client.Elect(b.c.keys[k])
	lat := time.Since(start)
	b.traceClient(start, lat)
	if b.op(err == nil && b.match(out, k)) {
		r.elect = append(r.elect, us(lat))
		r.elections++
		r.rounds += int64(out.Rounds)
	}
	return false, []int{k}
}

// traceClient records the benchmark's call as the request's client span.
func (b *bench) traceClient(start time.Time, lat time.Duration) {
	if b.tr.on.Load() {
		b.tr.record(spanClient, -1, b.tr.seq.Load(), start, start.Add(lat))
	}
}

// allKeys is the read pool of the serve workload.
func (b *bench) allKeys() []int {
	pool := make([]int, b.w.keys)
	for i := range pool {
		pool[i] = i
	}
	return pool
}

// serveRounds is how many rounds the serve workload splits its timed work
// into. Reads, admissions and restores alternate round by round, so every
// metric samples the whole run rather than one stretch of it: this
// machine's speed drifts by a fifth over a minute or two, and the longer
// the stretch a metric samples, the less of that drift it carries.
const serveRounds = 10

// servePhases runs the serve workload: each round, two closed-loop readers,
// then one writer cycling evict → re-admit over a constant keyspace, then
// one timed restore of every node from the snapshot taken after set-up.
// recover_s is the median restore.
func (b *bench) servePhases() (func() (float64, error), error) {
	snaps, want, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	cur := append([]int(nil), b.cur...)
	readers := []*picker{b.picker(10, b.allKeys()), b.picker(11, b.allKeys())}
	writer := b.picker(20, b.allKeys())
	n := max(b.w.readsPerS*b.p.seconds/(2*serveRounds), 8) // reads per client per round
	cycles := max(b.w.cyclesPerS*b.p.seconds/serveRounds, 2)

	b.concurrently(2, func(g int, timed func()) { // warm-up
		var r reads
		for j := 0; j < n/2; j++ {
			b.read(readers[g], j, &r)
		}
		timed()
	})
	b.cycles(writer, cycles/2, nil)

	readsBefore, admBefore := b.totals(), b.admissionTotals()
	var all reads
	var mu sync.Mutex
	var readTime, admitTime time.Duration
	var lat, restores []float64
	for round := 0; round < serveRounds; round++ {
		runtime.GC()
		var rr reads
		readTime += b.concurrently(2, func(g int, timed func()) {
			timed()
			var r reads
			for j := 0; j < n; j++ {
				b.read(readers[g], round*n+j, &r)
			}
			mu.Lock()
			rr.merge(&r)
			mu.Unlock()
		})
		all.merge(&rr)
		runtime.GC()
		var rlat []float64
		start := time.Now()
		b.cycles(writer, cycles, &rlat)
		admitTime += time.Since(start)
		lat = append(lat, rlat...)
		b.notePeak()
		d, err := b.restore(snaps, want, cur)
		if err != nil {
			return nil, err
		}
		restores = append(restores, d)
		b.logf("round %d: elect p50 %.1fus, batch p50 %.1fus, admit p50 %.1fus, restore %.3fs",
			round, median(rr.elect), median(rr.batch), median(rlat), d)
	}
	b.readMetrics(&all, readTime, readsBefore)
	b.admitMetrics(lat, admitTime, admBefore)
	rs := median(restores)
	return func() (float64, error) { return rs, nil }, nil
}

// snapshot writes every node's snapshot and returns the directories and
// the keys each node holds.
func (b *bench) snapshot() (snaps []string, want [][]int, err error) {
	want = make([][]int, len(b.cl.nodes))
	for k := range b.c.keys {
		o := b.cl.owner(b.c.keys[k])
		want[o] = append(want[o], k)
	}
	for i, n := range b.cl.nodes {
		snaps = append(snaps, filepath.Join(b.p.dir, fmt.Sprintf("snapshot-%d", i)))
		if _, err := n.reg.Snapshot(snaps[i]); err != nil {
			return nil, nil, err
		}
	}
	settleDisk()
	return snaps, want, nil
}

// concurrently runs body on clients goroutines; each calls timed() once its
// warm-up is done, and the returned duration spans from the moment all of
// them are warm until the last one finishes.
func (b *bench) concurrently(clients int, body func(g int, timed func())) time.Duration {
	var ready, done sync.WaitGroup
	gate := make(chan struct{})
	for g := 0; g < clients; g++ {
		ready.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			body(g, func() {
				ready.Done()
				<-gate
			})
		}(g)
	}
	ready.Wait()
	start := time.Now()
	close(gate)
	done.Wait()
	return time.Since(start)
}

// cycles runs n evict → re-admit cycles from one writer: each evicts a key
// and re-admits it with a configuration from the shape-change pool, so the
// keyspace stays constant and builders can rebuild in place. Admission
// latencies are appended to lat when it is non-nil.
func (b *bench) cycles(pk *picker, n int, lat *[]float64) {
	for i := 0; i < n; i++ {
		b.cycle(pk.key(), pk.alt(), lat)
	}
}

// cycle evicts key k and re-admits it holding configuration alt.
func (b *bench) cycle(k, alt int, lat *[]float64) {
	key := b.c.keys[k]
	if !b.op(b.cl.client.Evict(key) == nil) {
		return
	}
	b.journaled(walEvict, key)
	start := time.Now()
	_, err := b.cl.client.Register(key, b.c.texts[alt])
	d := time.Since(start)
	if !b.op(err == nil) {
		return
	}
	b.cur[k] = alt
	b.journaled(walAdmit, key)
	if lat != nil {
		*lat = append(*lat, us(d))
	}
}

// readMetrics turns the timed reads into end-to-end metrics and the
// serving counters into per-layer ones.
func (b *bench) readMetrics(r *reads, dur time.Duration, before service.ShardStats) {
	after := b.totals()
	b.set("elect_p50_us", median(r.elect))
	b.set("elect_per_s", float64(r.elections)/dur.Seconds())
	b.set("batch_p50_us", median(r.batch))
	b.set("elect_p99_us", percentile(r.elect, 0.99))
	b.set("batch_p99_us", percentile(r.batch, 0.99))
	b.set("elect_samples", float64(len(r.elect)))
	b.set("batch_samples", float64(len(r.batch)))
	b.set("service.stolen_share", ratio(after.Stolen-before.Stolen, after.Elections-before.Elections))
	b.logf("reads: %d single (p50 %.1fus), %d batches (p50 %.1fus), %.0f elections/s over %v",
		len(r.elect), median(r.elect), len(r.batch), median(r.batch), float64(r.elections)/dur.Seconds(), dur.Round(time.Millisecond))
}

func (b *bench) admitMetrics(lat []float64, dur time.Duration, before service.AdmissionStats) {
	after := b.admissionTotals()
	b.set("admit_p50_us", median(lat))
	b.set("admit_per_s", float64(len(lat))/dur.Seconds())
	b.set("admit_p99_us", percentile(lat, 0.99))
	b.set("admit_samples", float64(len(lat)))
	b.set("service.rebuild_hit_ratio", ratio(after.RebuildHits-before.RebuildHits, after.Completed-before.Completed))
	b.set("service.admission_rejected", float64(after.Rejected-before.Rejected))
	b.set("service.admission_failed", float64(after.Failed-before.Failed))
	b.logf("admissions: %d (p50 %.1fus), %.0f/s over %v, rebuild hits %d of %d",
		len(lat), median(lat), float64(len(lat))/dur.Seconds(), dur.Round(time.Millisecond),
		after.RebuildHits-before.RebuildHits, after.Completed-before.Completed)
}

// totals sums the shard counters of every node.
func (b *bench) totals() service.ShardStats {
	var all []service.ShardStats
	for _, n := range b.cl.nodes {
		st, err := n.reg.Stats()
		if err != nil {
			b.problem("reading shard stats: %v", err)
		}
		all = append(all, st...)
	}
	return service.Totals(all)
}

func (b *bench) admissionTotals() service.AdmissionStats {
	var t service.AdmissionStats
	for _, n := range b.cl.nodes {
		a := n.reg.AdmissionStats()
		t.Completed += a.Completed
		t.Failed += a.Failed
		t.Rejected += a.Rejected
		t.RebuildHits += a.RebuildHits
		t.TrustedLoads += a.TrustedLoads
	}
	return t
}

// restore times bringing every node back from its snapshot into a fresh
// registry. Recovery ends when every key has served one election again:
// that election builds the key's serving buffers, a cost a restarted node
// pays before it is back to speed, and it checks the outcome against the
// reference of the configuration cur gives the key.
func (b *bench) restore(snaps []string, want [][]int, cur []int) (float64, error) {
	var total time.Duration
	entries := 0
	for i, dir := range snaps {
		runtime.GC() // no garbage from earlier work is collected on the clock
		start := time.Now()
		reg := service.New(service.Options{})
		rr, err := reg.Restore(dir)
		if err != nil {
			reg.Close()
			return 0, err
		}
		b.verifyRecovered(reg, want[i], cur)
		total += time.Since(start)
		reg.Close()
		if rr.Entries != len(want[i]) || rr.Trusted != rr.Entries || len(rr.Skipped) != 0 {
			b.problem("node %d restored %d entries (%d trusted, %d skipped), want %d all trusted",
				i, rr.Entries, rr.Trusted, len(rr.Skipped), len(want[i]))
		}
		entries += rr.Entries
	}
	b.set("recover.records", 0)
	b.set("recover.checkpoint_entries", float64(entries))
	return total.Seconds(), nil
}

// verifyRecovered checks that reg holds exactly the given keys and that
// each elects the reference outcome of the configuration cur gives it.
func (b *bench) verifyRecovered(reg *service.Registry, keys, cur []int) {
	if reg.Len() != len(keys) {
		b.problem("recovered registry holds %d keys, want %d", reg.Len(), len(keys))
	}
	for _, k := range keys {
		out, err := reg.Elect(b.c.keys[k])
		want := b.c.ref[cur[k]]
		b.op(err == nil && out.Leader == want.leader && out.Rounds == want.rounds)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// infeasible reports whether err is the refusal of an infeasible
// configuration (HTTP 422).
func infeasible(err error) bool { return errors.Is(err, election.ErrInfeasible) }

// fsType names the filesystem holding dir, for the log: journal and
// snapshot timings depend on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "an unknown filesystem"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem type %#x", uint32(st.Type))
}

// settleDisk flushes written files to disk before a timed phase, so the
// write-back of set-up journals, snapshots and copies does not land on the
// clock of what follows.
func settleDisk() { syscall.Sync() }

// notePeak reads the live heap and keeps the largest reading as the run's
// peak memory.
func (b *bench) notePeak() uint64 {
	h := liveHeap()
	b.peak = max(b.peak, h)
	return h
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
