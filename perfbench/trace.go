package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/election"
	"anonradio/internal/radio"
	"anonradio/internal/service"
	"anonradio/internal/wal"
	"anonradio/internal/wire"
)

// readProbe holds the in-process timings of one traced read's keys, taken
// after the traced pass: Registry.Elect (or ElectBatch per owning node),
// Dedicated.ElectInto and Verify on the reference algorithm, and the wire
// codec round trip. Each call runs once untimed first, so every probe
// measures the warm path and differences between probes are the layers'
// own work.
type readProbe struct {
	batch        bool
	regElect     float64         // ns
	into, verify float64         // ns
	perNode      map[int]float64 // batch: ElectBatch of each node's share, ns
	codec        float64         // ns
}

// traced runs the traced passes with one request in flight: the read mix
// untraced and then traced (the difference is the tracing overhead), a
// traced admission pass, and the recovery-path probes. Self time of a span
// is its duration minus what its child spans (or the in-process probe of
// the layer below) cover.
func (b *bench) traced() error {
	pool := b.allKeys()
	if b.w.durable {
		pool = pool[:0]
		for k := 0; k < b.w.keys; k += 4 {
			pool = append(pool, k) // the keys the churn reader uses
		}
	}
	var base reads
	pk := b.picker(40, pool)
	for j := 0; j < b.w.traced; j++ {
		b.read(pk, j, &base)
	}

	// The probes run after the traced pass, so the pass itself carries
	// only the span wrappers.
	type traced struct {
		seq   int64
		batch bool
		idx   []int
	}
	var sent []traced
	var r reads
	pk = b.picker(40, pool)
	b.tr.on.Store(true)
	for j := 0; j < b.w.traced; j++ {
		seq := b.tr.seq.Add(1)
		batch, idx := b.read(pk, j, &r)
		sent = append(sent, traced{seq, batch, idx})
	}
	b.tr.on.Store(false)
	dedicated := make(map[int]*election.Dedicated)
	probes := make(map[int64]*readProbe)
	for _, t := range sent {
		pr, err := b.probeRead(t.batch, t.idx, dedicated)
		if err != nil {
			return err
		}
		probes[t.seq] = pr
	}
	b.set("radio.rounds_per_elect", ratio(r.rounds, r.elections))
	b.set("trace.overhead_pct", 100*(median(r.elect)-median(base.elect))/median(base.elect))

	regProbes, err := b.tracedAdmits()
	if err != nil {
		return err
	}
	if err := b.probeArtifacts(); err != nil {
		return err
	}
	b.attribute(probes, regProbes)
	return b.writeSpans()
}

// probeRead times the layers below the node handler in process for one
// traced read.
func (b *bench) probeRead(batch bool, idx []int, dedicated map[int]*election.Dedicated) (*readProbe, error) {
	pr := &readProbe{batch: batch}
	if batch {
		groups := make(map[int][]string)
		keys := make([]string, len(idx))
		outs := make([]wire.Outcome, len(idx))
		for i, k := range idx {
			keys[i] = b.c.keys[k]
			o := b.cl.owner(keys[i])
			groups[o] = append(groups[o], keys[i])
			ref := b.c.ref[b.cur[k]]
			outs[i] = wire.Outcome{Key: keys[i], Elected: true, Leader: ref.leader, Rounds: ref.rounds}
		}
		pr.perNode = make(map[int]float64)
		for o, sub := range groups {
			reg := b.cl.nodes[o].reg
			if _, err := reg.ElectBatch(sub, nil); err != nil {
				return nil, err
			}
			start := time.Now()
			_, err := reg.ElectBatch(sub, nil)
			pr.perNode[o] = float64(time.Since(start))
			if err != nil {
				return nil, err
			}
		}
		pr.codec = batchCodec(keys, outs)
		return pr, nil
	}
	k := idx[0]
	key := b.c.keys[k]
	reg := b.cl.nodes[b.cl.owner(key)].reg
	if _, err := reg.Elect(key); err != nil {
		return nil, err
	}
	start := time.Now()
	_, err := reg.Elect(key)
	pr.regElect = float64(time.Since(start))
	if err != nil {
		return nil, err
	}
	d := dedicated[b.cur[k]]
	if d == nil {
		var err error
		if d, err = buildText(b.c.texts[b.cur[k]]); err != nil {
			return nil, err
		}
		dedicated[b.cur[k]] = d
	}
	var out radio.ElectionOutcome
	if err := d.ElectInto(&out, radio.Options{}); err != nil {
		return nil, err
	}
	start = time.Now()
	err = d.ElectInto(&out, radio.Options{})
	pr.into = float64(time.Since(start))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	err = d.Verify(&out)
	pr.verify = float64(time.Since(start))
	if err != nil {
		return nil, err
	}
	ref := b.c.ref[b.cur[k]]
	pr.codec = electCodec(key, wire.Outcome{Key: key, Elected: true, Leader: ref.leader, Rounds: ref.rounds})
	return pr, nil
}

// codecReps repeats each codec probe so that one measurement spans well
// above the clock's resolution.
const codecReps = 64

// electCodec times encoding and decoding one elect request and its outcome
// frame, in ns per round trip.
func electCodec(key string, o wire.Outcome) float64 {
	var req, resp []byte
	start := time.Now()
	for i := 0; i < codecReps; i++ {
		req = wire.AppendElectRequestFrame(req[:0], &wire.ElectRequest{Key: key})
		_, payload, _, _ := wire.DecodeFrame(req)
		var er wire.ElectRequest
		_ = er.DecodeFrom(payload) // the frame was just encoded
		resp = wire.AppendOutcomeFrame(resp[:0], &o)
		_, payload, _, _ = wire.DecodeFrame(resp)
		var wo wire.Outcome
		_ = wo.DecodeFrom(payload)
	}
	return float64(time.Since(start)) / codecReps
}

// batchCodec is electCodec for a batch request and its response.
func batchCodec(keys []string, outs []wire.Outcome) float64 {
	var req, resp []byte
	start := time.Now()
	for i := 0; i < codecReps; i++ {
		req = wire.AppendBatchRequestFrame(req[:0], &wire.BatchRequest{Keys: keys})
		_, payload, _, _ := wire.DecodeFrame(req)
		var br wire.BatchRequest
		_ = br.DecodeFrom(payload) // the frame was just encoded
		resp = wire.AppendBatchResponseFrame(resp[:0], &wire.BatchResponse{Outcomes: outs})
		_, payload, _, _ = wire.DecodeFrame(resp)
		var wb wire.BatchResponse
		_ = wb.DecodeFrom(payload)
	}
	return float64(time.Since(start)) / codecReps
}

// tracedAdmits runs traced evict → re-admit cycles and probes the
// admission layers on each new configuration: parse, classify, build, a
// Registry.Register on a probe registry configured like the node (the key
// holding its previous configuration first, as in the live cycle) and, on
// the durable workload, a journal append of the same record on a probe log
// with the same sync policy. It returns the Register probe per sequence
// number.
func (b *bench) tracedAdmits() (map[int64]float64, error) {
	dir := filepath.Join(b.p.dir, "probe")
	var preg *service.Registry
	var plog *wal.Log
	if b.w.durable {
		var err error
		if preg, _, err = service.Open(walOptions(filepath.Join(dir, "registry"))); err != nil {
			return nil, err
		}
		if plog, err = wal.Open(filepath.Join(dir, "log"), wal.Options{Sync: wal.SyncAlways}); err != nil {
			preg.Close()
			return nil, err
		}
		defer plog.Close()
	} else {
		preg = service.New(service.Options{})
	}
	defer preg.Close()

	var parse, classify, build, register, appends []float64
	var iterations int64
	regProbe := make(map[int64]float64)
	pool := b.allKeys()
	if b.w.durable {
		pool = pool[:0]
		for k := range b.c.keys {
			if k%4 != 0 {
				pool = append(pool, k)
			}
		}
	}
	pk := b.picker(50, pool)
	for j := 0; j < b.w.traced; j++ {
		k, alt := pk.key(), pk.alt()
		key, prev, text := b.c.keys[k], b.cur[k], b.c.texts[alt]
		if !b.op(b.cl.client.Evict(key) == nil) {
			continue
		}
		seq := b.tr.seq.Add(1)
		b.tr.on.Store(true)
		start := time.Now()
		_, err := b.cl.client.Register(key, text)
		b.tr.record(spanClient, -1, seq, start, time.Now())
		b.tr.on.Store(false)
		if !b.op(err == nil) {
			continue
		}
		b.cur[k] = alt

		start = time.Now()
		cfg, err := config.Unmarshal(text)
		parse = append(parse, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		rep, err := core.ClassifyTurbo(cfg, core.ClassifyOptions{})
		classify = append(classify, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		iterations += int64(rep.Iterations())
		start = time.Now()
		d, err := election.BuildDedicated(cfg)
		build = append(build, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		prevCfg, err := config.Unmarshal(b.c.texts[prev])
		if err != nil {
			return nil, err
		}
		if err := preg.Register(key, prevCfg); err != nil {
			return nil, err
		}
		preg.Evict(key)
		start = time.Now()
		err = preg.Register(key, cfg)
		register = append(register, us(time.Since(start)))
		regProbe[seq] = float64(time.Since(start))
		if err != nil {
			return nil, err
		}
		if plog != nil {
			payload, err := wire.AppendWALAdmitFrame(nil, &wire.WALAdmit{Key: key, Config: d.Config.Marshal(), Artifact: d.Compile()})
			if err != nil {
				return nil, err
			}
			start = time.Now()
			err = plog.Append(payload)
			appends = append(appends, us(time.Since(start)))
			if err != nil {
				return nil, err
			}
		}
	}
	b.set("config.parse_us", median(parse))
	b.set("core.classify_us", median(classify))
	b.set("core.iterations", ratio(iterations, int64(len(classify))))
	b.set("election.build_us", median(build)-median(classify))
	b.set("service.admit_self_us", median(register)-median(build))
	b.set("wal.append_us", median(appends))
	return regProbe, nil
}

// probeArtifacts times the recovery path's per-key work on the current
// configurations of up to 64 keys: decoding a compiled artifact frame and
// adopting it through the digest-trusted load.
func (b *bench) probeArtifacts() error {
	var decode, load []float64
	for k := 0; k < min(64, b.w.keys); k++ {
		text := b.c.texts[b.cur[k]]
		d, err := buildText(text)
		if err != nil {
			return err
		}
		frame, err := wire.AppendArtifactFrame(nil, d.Compile())
		if err != nil {
			return err
		}
		cfg, err := config.Unmarshal(text)
		if err != nil {
			return err
		}
		start := time.Now()
		c, err := wire.DecodeArtifactFrame(frame)
		decode = append(decode, us(time.Since(start)))
		if err != nil {
			return err
		}
		start = time.Now()
		_, err = election.LoadTrusted(c, cfg)
		load = append(load, us(time.Since(start)))
		if err != nil {
			return err
		}
	}
	b.set("wire.artifact_decode_us", median(decode))
	b.set("election.load_trusted_us", median(load))
	return nil
}

// attribute turns the spans and probes into self times per layer.
func (b *bench) attribute(reads map[int64]*readProbe, regs map[int64]float64) {
	var client, router, hop, nodeElect, nodeBatch, nodeReg, svc, into, verify, codec, batchCodec, fanout []float64
	var e2e []float64
	for seq, spans := range b.tr.bySeq() {
		var c, front *span
		var hops, nodes []span
		for i := range spans {
			switch spans[i].Kind {
			case spanClient:
				c = &spans[i]
			case spanFront:
				front = &spans[i]
			case spanHop:
				hops = append(hops, spans[i])
			case spanNode:
				nodes = append(nodes, spans[i])
			}
		}
		if c == nil || len(nodes) == 0 {
			continue
		}
		if front == nil {
			front = &nodes[0]
		}
		if rp, ok := regs[seq]; ok {
			nodeReg = append(nodeReg, (nodes[0].dur()-rp)/1e3)
			continue
		}
		pr := reads[seq]
		if pr == nil {
			continue
		}
		if pr.batch {
			for _, n := range nodes {
				nodeBatch = append(nodeBatch, (n.dur()-pr.perNode[n.Node])/1e3)
			}
			batchCodec = append(batchCodec, pr.codec/1e3)
			if b.w.routed {
				fanout = append(fanout, float64(len(nodes)))
			}
			continue
		}
		e2e = append(e2e, c.dur()/1e3)
		client = append(client, (c.dur()-front.dur())/1e3)
		if b.w.routed && len(hops) == 1 {
			router = append(router, (front.dur()-covered(hops, front.Start, front.End))/1e3)
			hop = append(hop, (hops[0].dur()-nodes[0].dur())/1e3)
		}
		nodeElect = append(nodeElect, (nodes[0].dur()-pr.regElect)/1e3)
		svc = append(svc, (pr.regElect-pr.into)/1e3)
		into = append(into, pr.into/1e3)
		verify = append(verify, pr.verify/1e3)
		codec = append(codec, pr.codec)
	}
	b.set("fleet.client_self_us", median(client))
	b.set("fleet.router_self_us", median(router))
	b.set("fleet.hop_us", median(hop))
	b.set("fleet.batch_fanout", mean(fanout))
	b.set("server.elect_self_us", median(nodeElect))
	b.set("server.batch_self_us", median(nodeBatch))
	b.set("server.register_self_us", median(nodeReg))
	b.set("wire.elect_codec_ns", median(codec))
	b.set("wire.batch_codec_us", median(batchCodec))
	b.set("service.elect_self_us", median(svc))
	b.set("election.elect_into_us", median(into))
	b.set("election.verify_us", median(verify))
	stages := median(client) + median(router) + median(hop) + median(nodeElect) + median(svc) + median(into)
	b.set("trace.unattributed_us", median(e2e)-stages)
}

// writeSpans writes every collected span as one JSON line.
func (b *bench) writeSpans() error {
	f, err := os.Create(b.p.spans)
	if err != nil {
		return err
	}
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	enc := json.NewEncoder(f)
	for _, s := range b.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	b.logf("spans: %d written to %s", len(b.tr.spans), b.p.spans)
	return nil
}
