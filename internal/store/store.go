package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"butterfly"
)

// Options tunes a Store. The zero value is a production-safe default:
// fsync on every acknowledged mutation, checkpoint when the WAL
// passes 64 MiB.
type Options struct {
	// Fsync selects the WAL flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background flush period under
	// FsyncInterval; ≤ 0 means 100ms.
	FsyncInterval time.Duration
	// CheckpointBytes is the WAL size past which ShouldCheckpoint
	// reports true; 0 means 64 MiB, < 0 disables size-triggered
	// checkpoints.
	CheckpointBytes int64
	// Logf, when non-nil, receives recovery and checkpoint notices
	// (wired to log.Printf in the daemon).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 64 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Store is the durable graph store: one WAL plus a directory of
// per-graph snapshots under a single data directory.
//
//	<dir>/wal.log
//	<dir>/snapshots/<name>.v<version>.snap
//
// Log* appends may run concurrently (group commit batches their
// fsyncs); Checkpoint excludes appends for its duration so the
// snapshot set plus the truncated log always covers every
// acknowledged mutation.
type Store struct {
	dir  string
	opts Options

	// mu is the append/checkpoint exclusion: appends hold it read,
	// checkpoint holds it write. Lock order: registry locks → mu.
	mu  sync.RWMutex
	wal *WAL

	checkpoints atomic.Uint64
	closed      atomic.Bool
}

// Recovered describes one graph reconstructed by Open: its authority
// counter (ready to adopt into the serve registry), the version it
// reached, and how it was rebuilt.
type Recovered struct {
	Name    string
	Version uint64
	// Counter is the replayed authority; Counter.Count() has been
	// cross-checked against the stored stamps.
	Counter *butterfly.DynamicCounter
	Count   int64
	// Source is "snapshot", "wal", or "snapshot+wal".
	Source string
	// Replayed is the number of WAL mutation batches applied on top of
	// the snapshot (or register record).
	Replayed int
}

const walFileName = "wal.log"

// Open attaches to (creating if needed) the data directory, runs
// crash recovery, truncates any torn WAL tail, and returns the store
// ready for appends plus every recovered graph.
//
// Physical tail corruption — a torn, short or checksum-failing record,
// exactly what a crash mid-write produces — is tolerated: the log is
// truncated at the last valid record and recovery proceeds. Logical
// corruption (a replayed count disagreeing with a stored stamp, a
// version gap, a mutation for an unknown graph) means the directory
// cannot be trusted to reproduce the acknowledged state, so Open
// refuses it rather than serve a corrupt graph.
func Open(dir string, opts Options) (*Store, []Recovered, error) {
	opts = opts.withDefaults()
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, nil, err
	}

	recovered, err := recoverDir(dir, opts.Logf)
	if err != nil {
		return nil, nil, err
	}

	wal, err := openWAL(filepath.Join(dir, walFileName), opts.Fsync, opts.FsyncInterval)
	if err != nil {
		return nil, nil, err
	}
	return &Store{dir: dir, opts: opts, wal: wal}, recovered, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// WALSize returns the current WAL length in bytes.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// WALSyncs returns the number of completed WAL fsyncs.
func (s *Store) WALSyncs() uint64 { return s.wal.Syncs() }

// Checkpoints returns the number of completed checkpoints.
func (s *Store) Checkpoints() uint64 { return s.checkpoints.Load() }

// FsyncPolicy returns the configured flush policy.
func (s *Store) FsyncPolicy() FsyncPolicy { return s.opts.Fsync }

// ShouldCheckpoint reports whether the WAL has outgrown the
// configured threshold.
func (s *Store) ShouldCheckpoint() bool {
	return s.opts.CheckpointBytes > 0 && s.wal.Size() >= s.opts.CheckpointBytes
}

// append writes one record under the shared (append-side) lock.
func (s *Store) append(rec *Record) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return fmt.Errorf("store: closed")
	}
	return s.wal.Append(rec)
}

// LogRegister records a graph (re)entering the registry with its full
// edge set, initial count, and version 1. It must be acknowledged
// before the registration is published.
func (s *Store) LogRegister(name string, version uint64, g *butterfly.Graph, count int64) error {
	return s.append(&Record{
		Type:    recRegister,
		Name:    name,
		Version: version,
		M:       g.NumV1(),
		N:       g.NumV2(),
		Count:   count,
		Edges:   g.Edges(),
	})
}

// LogMutate records one applied mutation batch together with its
// post-state stamps (version, count, edge count) — replay cross-checks
// against them. It must be acknowledged before the new snapshot is
// published.
func (s *Store) LogMutate(name string, version uint64, inserts, deletes [][2]int, count, edges int64) error {
	return s.append(&Record{
		Type:     recMutate,
		Name:     name,
		Version:  version,
		Inserts:  inserts,
		Deletes:  deletes,
		Count:    count,
		NumEdges: edges,
	})
}

// LogDrop records a graph leaving the registry.
func (s *Store) LogDrop(name string) error {
	return s.append(&Record{Type: recDrop, Name: name, Version: 0})
}

// GraphState is one graph's published state handed to Checkpoint.
type GraphState struct {
	Name    string
	Version uint64
	Graph   *butterfly.Graph
	Count   int64
}

// CheckpointStats summarizes one checkpoint.
type CheckpointStats struct {
	Graphs         int
	WALBytesBefore int64
	WALBytesAfter  int64
	Elapsed        time.Duration
}

// Checkpoint makes states durable as snapshot files, then compacts:
// truncates the WAL (every record is now covered by a snapshot) and
// deletes stale snapshot generations and snapshots of dropped graphs.
//
// The caller must guarantee states is consistent with every
// acknowledged append — i.e. no mutation may be in flight between its
// WAL append and its registry publish while Checkpoint runs. The
// serve registry enforces this by holding its write locks across the
// call; Checkpoint additionally excludes new appends itself.
//
// Durability ordering: snapshots are fsynced into place before the
// WAL is truncated, and stale files are removed only after the
// truncate — a crash at any point leaves a directory that still
// recovers to the same state.
func (s *Store) Checkpoint(states []GraphState) (CheckpointStats, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return CheckpointStats{}, fmt.Errorf("store: closed")
	}

	stats := CheckpointStats{Graphs: len(states), WALBytesBefore: s.wal.Size()}
	snapDir := filepath.Join(s.dir, "snapshots")
	keep := make(map[string]bool, len(states))
	for _, st := range states {
		file := snapshotFileName(st.Name, st.Version)
		keep[file] = true
		sd := &SnapshotData{
			Name:    st.Name,
			Version: st.Version,
			M:       st.Graph.NumV1(),
			N:       st.Graph.NumV2(),
			Count:   st.Count,
			Edges:   st.Graph.Edges(),
		}
		if err := WriteSnapshotFile(filepath.Join(snapDir, file), sd); err != nil {
			return stats, fmt.Errorf("store: checkpoint %q: %w", st.Name, err)
		}
	}

	if err := s.wal.Truncate(); err != nil {
		return stats, err
	}
	stats.WALBytesAfter = s.wal.Size()

	// Log compaction epilogue: drop everything the new snapshot set
	// supersedes — older generations, dropped graphs, stray temp files
	// from interrupted writes.
	entries, err := os.ReadDir(snapDir)
	if err != nil {
		return stats, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if keep[name] {
			continue
		}
		if strings.HasSuffix(name, ".snap") || strings.HasPrefix(name, ".tmp-snap-") {
			if err := os.Remove(filepath.Join(snapDir, name)); err != nil {
				s.opts.Logf("store: checkpoint gc %s: %v", name, err)
			}
		}
	}

	s.checkpoints.Add(1)
	stats.Elapsed = time.Since(start)
	s.opts.Logf("store: checkpoint: %d graph(s), wal %d → %d bytes (%.3fs)",
		stats.Graphs, stats.WALBytesBefore, stats.WALBytesAfter, stats.Elapsed.Seconds())
	return stats, nil
}

// Close flushes and closes the WAL. Appends after Close fail.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Close()
}

// --- recovery ---

// recState is one graph's in-flight recovery state.
type recState struct {
	dyn      *butterfly.DynamicCounter
	version  uint64
	source   string
	replayed int
}

// recoverDir rebuilds every graph from dir's snapshots + WAL and
// truncates any torn WAL tail. See Open for the corruption policy.
func recoverDir(dir string, logf func(string, ...any)) ([]Recovered, error) {
	snapDir := filepath.Join(dir, "snapshots")
	states := make(map[string]*recState)

	// 1. Newest valid snapshot per graph. Validity is layered: file
	// checksums first, then the rebuilt counter's count must equal the
	// stored stamp (seeding the counter recounts the decoded edge set
	// with the static kernel, so this cross-checks the codec against
	// an independent count).
	byName, err := loadSnapshotCandidates(snapDir, logf)
	if err != nil {
		return nil, err
	}
	for name, cands := range byName {
		for _, sd := range cands { // sorted newest first
			g, err := butterfly.FromEdges(sd.M, sd.N, sd.Edges)
			if err != nil {
				logf("store: recovery: snapshot %s v%d: bad edge set: %v (trying older)", name, sd.Version, err)
				continue
			}
			dyn := butterfly.NewDynamicCounterFromGraph(g)
			if dyn.Count() != sd.Count {
				logf("store: recovery: snapshot %s v%d: stored count %d != recomputed %d (trying older)",
					name, sd.Version, sd.Count, dyn.Count())
				continue
			}
			states[name] = &recState{dyn: dyn, version: sd.Version, source: "snapshot"}
			break
		}
	}

	// 2. Scan the WAL's valid prefix and truncate the rest.
	walPath := filepath.Join(dir, walFileName)
	var recs []*Record
	if f, err := os.Open(walPath); err == nil {
		var validLen int64
		var reason error
		recs, validLen, reason = scanWAL(f)
		st, statErr := f.Stat()
		f.Close()
		if statErr != nil {
			return nil, statErr
		}
		if reason != nil || validLen < st.Size() {
			logf("store: recovery: wal %s: %d of %d bytes valid (%v); truncating tail",
				walPath, validLen, st.Size(), reason)
			if err := truncateFile(walPath, validLen); err != nil {
				return nil, fmt.Errorf("store: truncating torn wal tail: %w", err)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	// 3. Replay. A register record always rebuilds the graph from the
	// record — never trust a same-named snapshot over it, because the
	// record may be a replace-registration that supersedes the
	// checkpointed graph. This is always correct: checkpoints truncate
	// whole histories, so any register record still in the WAL is
	// followed there by every subsequent batch for that graph (an
	// interrupted checkpoint merely means the rebuild re-derives what
	// the snapshot already knew). Mutations at or below the current
	// version are already inside the snapshot and are skipped; each
	// applied batch must land exactly on the record's post-state
	// stamps.
	for i, rec := range recs {
		switch rec.Type {
		case recRegister:
			g, err := butterfly.FromEdges(rec.M, rec.N, rec.Edges)
			if err != nil {
				return nil, fmt.Errorf("store: wal record %d: register %q: %w", i, rec.Name, err)
			}
			dyn := butterfly.NewDynamicCounterFromGraph(g)
			if dyn.Count() != rec.Count {
				return nil, fmt.Errorf("store: wal record %d: register %q stamps count %d, replay computed %d",
					i, rec.Name, rec.Count, dyn.Count())
			}
			states[rec.Name] = &recState{dyn: dyn, version: rec.Version, source: "wal"}
		case recMutate:
			st, ok := states[rec.Name]
			if !ok {
				return nil, fmt.Errorf("store: wal record %d: mutation for unknown graph %q", i, rec.Name)
			}
			if rec.Version <= st.version {
				continue // already inside the snapshot
			}
			if rec.Version != st.version+1 {
				return nil, fmt.Errorf("store: wal record %d: %q version gap: have v%d, record is v%d",
					i, rec.Name, st.version, rec.Version)
			}
			for _, p := range rec.Inserts {
				if _, _, err := st.dyn.InsertEdge(p[0], p[1]); err != nil {
					return nil, fmt.Errorf("store: wal record %d: %q: %w", i, rec.Name, err)
				}
			}
			for _, p := range rec.Deletes {
				if _, _, err := st.dyn.DeleteEdge(p[0], p[1]); err != nil {
					return nil, fmt.Errorf("store: wal record %d: %q: %w", i, rec.Name, err)
				}
			}
			if st.dyn.Count() != rec.Count || st.dyn.NumEdges() != rec.NumEdges {
				return nil, fmt.Errorf("store: wal record %d: %q v%d: stamps (count=%d, edges=%d), replay reached (count=%d, edges=%d)",
					i, rec.Name, rec.Version, rec.Count, rec.NumEdges, st.dyn.Count(), st.dyn.NumEdges())
			}
			st.version = rec.Version
			st.replayed++
			if st.source == "snapshot" {
				st.source = "snapshot+wal"
			}
		case recDrop:
			if _, ok := states[rec.Name]; !ok {
				logf("store: recovery: wal record %d drops unknown graph %q (ignored)", i, rec.Name)
				continue
			}
			delete(states, rec.Name)
		}
	}

	names := make([]string, 0, len(states))
	for n := range states {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Recovered, 0, len(names))
	for _, n := range names {
		st := states[n]
		out = append(out, Recovered{
			Name:     n,
			Version:  st.version,
			Counter:  st.dyn,
			Count:    st.dyn.Count(),
			Source:   st.source,
			Replayed: st.replayed,
		})
	}
	return out, nil
}

// loadSnapshotCandidates reads every *.snap file, groups the valid
// ones by graph name (the header is authoritative, never the file
// name), newest version first. Corrupt files are logged and left in
// place for forensics; checkpoint GC removes them eventually.
func loadSnapshotCandidates(snapDir string, logf func(string, ...any)) (map[string][]*SnapshotData, error) {
	entries, err := os.ReadDir(snapDir)
	if err != nil {
		return nil, err
	}
	byName := make(map[string][]*SnapshotData)
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".snap") {
			continue
		}
		sd, err := ReadSnapshotFile(filepath.Join(snapDir, ent.Name()))
		if err != nil {
			logf("store: recovery: invalid snapshot %s: %v", ent.Name(), err)
			continue
		}
		byName[sd.Name] = append(byName[sd.Name], sd)
	}
	for _, cands := range byName {
		sort.Slice(cands, func(i, j int) bool { return cands[i].Version > cands[j].Version })
	}
	return byName, nil
}

// truncateFile cuts path to n bytes and fsyncs the result.
func truncateFile(path string, n int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(n); err != nil {
		return err
	}
	return f.Sync()
}
