package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"anonradio/internal/service"
	"anonradio/internal/wal"
)

type walOp uint8

const (
	walAdmit walOp = iota
	walEvict
)

// ledger mirrors the durable node's journal since its last checkpoint, as
// the writer acknowledged it, so recovery can be checked record for record.
type ledger struct {
	on      bool
	seen    int64 // checkpoints completed so far
	entries int   // keys registered when the last checkpoint ran
	bytesAt int64 // journal size right after the last checkpoint
	tail    []journalRec
	waited  time.Duration // the writer's time spent waiting out checkpoints
}

type journalRec struct {
	op  walOp
	key string
}

// setupAdmits notes the set-up's admissions; they are covered by the first
// checkpoint, which the warm-up always reaches.
func (l *ledger) setupAdmits(n int) {
	l.on = true
	l.tail = append(l.tail, make([]journalRec, n)...)
}

// expect returns what replaying the tail must do: admits applied, evicts
// applied, and admits compacted away because a later evict drops the key.
func (l *ledger) expect() (admits, evicts, compacted int) {
	lastEvict := make(map[string]int)
	for i, r := range l.tail {
		if r.op == walEvict {
			lastEvict[r.key] = i
			evicts++
		}
	}
	for i, r := range l.tail {
		if r.op != walAdmit {
			continue
		}
		if e, ok := lastEvict[r.key]; ok && e > i {
			compacted++
		} else {
			admits++
		}
	}
	return admits, evicts, compacted
}

// journaled records one acknowledged journal write and, if a checkpoint is
// due or already rotating the journal, waits for it to finish before the
// writer goes on: the journal then rotates at the same write on every run.
func (b *bench) journaled(op walOp, key string) {
	if !b.ledger.on {
		return
	}
	b.ledger.tail = append(b.ledger.tail, journalRec{op, key})
	reg := b.cl.nodes[0].reg
	st := reg.WALStats()
	// A checkpoint resets the record count when it rotates the journal and
	// counts itself done only after the snapshot, so a count below the
	// ledger's also means one is running.
	running := st.RecordsSinceCheckpoint < int64(len(b.ledger.tail))
	if st.Checkpoints == b.ledger.seen && (running || st.RecordsSinceCheckpoint >= autoCheckpointRecords(reg.Len())) {
		start := time.Now()
		deadline := start.Add(30 * time.Second)
		for st.Checkpoints == b.ledger.seen && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
			st = reg.WALStats()
		}
		b.ledger.waited += time.Since(start)
		if st.Checkpoints == b.ledger.seen {
			b.problem("a checkpoint was due after %d journal records but did not complete", len(b.ledger.tail))
			return
		}
	}
	if st.Checkpoints != b.ledger.seen {
		// The checkpoint wrote a snapshot; its write-back is part of the
		// wait, not of the writes that follow.
		start := time.Now()
		settleDisk()
		b.ledger.waited += time.Since(start)
		if st.Checkpoints != b.ledger.seen+1 || st.RecordsSinceCheckpoint != 0 {
			b.problem("checkpoint %d did not rotate the journal at write %d", st.Checkpoints, len(b.ledger.tail))
		}
		b.ledger.seen = st.Checkpoints
		b.ledger.entries = reg.Len()
		b.ledger.bytesAt = st.JournalBytes
		b.ledger.tail = b.ledger.tail[:0]
	}
}

// churnPhases runs the durable workload: a writer cycling evict → re-admit
// (with an infeasible submission every writesPerBad writes) beside a reader
// electing keys the writer never touches. The warm-up runs through the
// first checkpoint; the timed phase then runs a fixed number of cycles.
// The journal directory at that point is the crash image recovery is
// measured on: the last checkpoint plus the journal written since. The
// reader's metrics cover the whole timed phase, checkpoints included; the
// writer's cover its own time, without the checkpoints it waited out.
func (b *bench) churnPhases() (func() (float64, error), error) {
	reg := b.cl.nodes[0].reg
	b.ledger.seen = reg.WALStats().Checkpoints
	var stable, churned []int
	for k := range b.c.keys {
		if k%4 == 0 {
			stable = append(stable, k)
		} else {
			churned = append(churned, k)
		}
	}
	// The set-up journaled one record per key; each cycle adds two.
	warm := int((autoCheckpointRecords(b.w.keys) - int64(b.w.keys) + 1) / 2)
	timed := b.w.cyclesPerS * b.p.seconds

	var phase atomic.Int32 // 0 warm-up, 1 timed, 2 done
	var r reads
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		pk := b.picker(30, stable)
		var scratch reads
		for j := 0; phase.Load() != 2; j++ {
			if phase.Load() == 1 {
				b.read(pk, j, &r)
			} else {
				b.read(pk, j, &scratch)
			}
		}
	}()

	writer := b.picker(31, churned)
	w := 0
	for cycles := 0; cycles < warm; w++ {
		if b.write(writer, w, nil) {
			cycles++
		}
	}
	if b.ledger.seen == 0 {
		b.problem("no checkpoint ran during the warm-up")
	}
	readsBefore, admBefore, walBefore := b.totals(), b.admissionTotals(), reg.WALStats()
	b.ledger.waited = 0
	var lat []float64
	phase.Store(1)
	start := time.Now()
	for cycles := 0; cycles < timed; w++ {
		if b.write(writer, w, &lat) {
			cycles++
		}
	}
	dur := time.Since(start)
	phase.Store(2)
	<-readerDone
	b.readMetrics(&r, dur, readsBefore)
	b.admitMetrics(lat, dur-b.ledger.waited, admBefore)
	b.notePeak()

	st := reg.WALStats()
	tailAdmits := 0
	for _, rec := range b.ledger.tail {
		if rec.op == walAdmit {
			tailAdmits++
		}
	}
	b.set("wal.syncs_per_admit", float64(st.Syncs-walBefore.Syncs)/float64(timed))
	b.set("wal.checkpoints", float64(st.Checkpoints))
	b.set("wal.checkpoint_ms", float64(st.LastCheckpoint)/float64(time.Millisecond))
	b.set("wal.bytes_per_admit", float64(st.JournalBytes-b.ledger.bytesAt)/float64(max(tailAdmits, 1)))
	b.logf("churn: %d warm-up + %d timed cycles, %d checkpoints (%d in the timed phase, last %v), journal tail %d records",
		warm, timed, st.Checkpoints, st.Checkpoints-walBefore.Checkpoints, st.LastCheckpoint.Round(time.Millisecond), len(b.ledger.tail))

	crash := filepath.Join(b.p.dir, "crash")
	if err := copyDir(st.Dir, crash); err != nil {
		return nil, err
	}
	cur := append([]int(nil), b.cur...)
	return func() (float64, error) { return b.recoverCrash(crash, cur) }, nil
}

// write issues the w-th write: an infeasible configuration under a fresh
// key, which must be refused, or one evict → re-admit cycle.
func (b *bench) write(pk *picker, w int, lat *[]float64) (cycled bool) {
	if w%writesPerBad == writesPerBad-1 {
		_, err := b.cl.client.Register(fmt.Sprintf("bad-%d", w), b.c.bad[(w/writesPerBad)%len(b.c.bad)])
		b.op(infeasible(err))
		return false
	}
	b.cycle(pk.key(), pk.alt(), lat)
	return true
}

// recoverCrash times recovery from three fresh copies of the crash image
// and returns the median. Recovery is service.Open plus one election of
// every key, as in restoreAll; every pass checks the recovered keys, their
// outcomes, and the recovery report against the ledger.
func (b *bench) recoverCrash(crash string, cur []int) (float64, error) {
	admits, evicts, compacted := b.ledger.expect()
	all := make([]int, b.w.keys)
	for k := range all {
		all[k] = k
	}
	var times, replays []float64
	for rep := 0; rep < 3; rep++ {
		dir := filepath.Join(b.p.dir, fmt.Sprintf("recover-%d", rep))
		if err := copyDir(crash, dir); err != nil {
			return 0, err
		}
		settleDisk()
		runtime.GC() // no garbage from earlier work is collected on the clock
		start := time.Now()
		reg, rr, err := service.Open(walOptions(dir))
		if err != nil {
			return 0, err
		}
		b.verifyRecovered(reg, all, cur)
		times = append(times, time.Since(start).Seconds())
		switch {
		case !rr.Clean() || !rr.CheckpointRestored:
			b.problem("recovery was not clean (checkpoint restored: %v)", rr.CheckpointRestored)
		case rr.Checkpoint.Entries != b.ledger.entries || rr.Checkpoint.Trusted != rr.Checkpoint.Entries:
			b.problem("checkpoint restored %d entries (%d trusted), want %d", rr.Checkpoint.Entries, rr.Checkpoint.Trusted, b.ledger.entries)
		case rr.Admits != admits || rr.Evicts != evicts || rr.Compacted != compacted:
			b.problem("journal replay applied %d admits, %d evicts, %d compacted; want %d, %d, %d",
				rr.Admits, rr.Evicts, rr.Compacted, admits, evicts, compacted)
		}
		if loads := reg.AdmissionStats().TrustedLoads; loads != int64(rr.Checkpoint.Trusted+rr.Admits) {
			b.problem("%d trusted loads, want %d checkpoint entries + %d journal admits", loads, rr.Checkpoint.Trusted, rr.Admits)
		}
		if rep == 0 {
			b.set("recover.records", float64(rr.Admits+rr.Evicts+rr.Compacted))
			b.set("recover.checkpoint_entries", float64(rr.Checkpoint.Entries))
			b.notePeak()
		}
		reg.Close()

		raw := filepath.Join(b.p.dir, fmt.Sprintf("replay-%d", rep))
		if err := copyDir(crash, raw); err != nil {
			return 0, err
		}
		start = time.Now()
		if _, err := wal.Replay(raw, func([]byte) error { return nil }); err != nil {
			return 0, err
		}
		replays = append(replays, time.Since(start).Seconds())
	}
	b.set("wal.replay_s", median(replays))
	b.logf("recovery: %v (journal %d admits, %d evicts, %d compacted; checkpoint %d entries)", times, admits, evicts, compacted, b.ledger.entries)
	return median(times), nil
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
