package main

// workload is one traffic mix. Timed phases run a fixed number of
// operations, never a fixed time: the counts marked "per second" are
// multiplied by --seconds (a run at --seconds 10 takes under a minute and a
// half on a 2-core machine). A fixed count keeps the background work
// (checkpoints) and the crash point identical on every run.
// README.md records why each workload exists.
type workload struct {
	name       string
	keys, alts int // keyspace size; shape-change pool size
	nMin, nMax int // configuration sizes
	nodes      int
	routed     bool // clients talk to a fleet router in front of the nodes
	durable    bool // write-ahead log with sync policy always; crash recovery
	batchEvery int  // every batchEvery-th read is a batch election
	batchSize  int
	readsPerS  int // timed reads per second (serve workload)
	cyclesPerS int // timed evict → re-admit cycles per second
	traced     int // operations of each traced pass
}

var workloads = []workload{
	{
		name: "serve-routed-small", keys: 4096, alts: 512, nMin: 8, nMax: 24,
		nodes: 3, routed: true, batchEvery: 8, batchSize: 16,
		readsPerS: 5000, cyclesPerS: 800, traced: 800,
	},
	{
		name: "admit-churn-durable", keys: 4096, alts: 1024, nMin: 16, nMax: 48,
		nodes: 1, durable: true, batchEvery: 8, batchSize: 8,
		cyclesPerS: 600, traced: 300,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// writesPerBad makes one write in this many an infeasible submission on the
// churn workload.
const writesPerBad = 16

// autoCheckpointRecords is the registry's documented automatic checkpoint
// pacing (service.WALOptions.CheckpointRecords = 0): a checkpoint is due
// once clamp(4 × registered configurations, 64, 8192) journal records
// accumulated since the last one. The churn writer pauses while a due
// checkpoint runs, so every run rotates the journal at the same write.
func autoCheckpointRecords(configs int) int64 {
	return min(max(4*int64(configs), 64), 8192)
}
