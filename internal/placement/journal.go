// Delta journal: a deterministic, versioned, CRC-protected JSONL log of
// every delta applied through the Service, plus full-state checkpoints.
// Together they make the service crash-safe: Recover rebuilds a Service
// whose epoch, availability snapshots and subsequent decision stream
// are bit-identical to the uninterrupted run (see recover.go; the
// façade's kill/restart chaos test drives the whole path).
//
// Wire format. One record per line, each line a small envelope:
//
//	{"crc":"<8 hex digits>","rec":{...}}
//
// The CRC is IEEE CRC-32 over the exact bytes of the "rec" value, so a
// single flipped bit anywhere in the record fails verification. The
// first record of every journal segment is a "begin" marker carrying
// the epoch the journal attached at; every subsequent record carries
// seq = the service epoch after applying it, forming a gap-free chain.
// A later "begin" with seq <= the current chain position logically
// truncates the records after it — that is how a recovered service
// appends to the same journal after a crash discarded a damaged tail.
//
// Checkpoints use the same envelope, one line for the whole state.
package placement

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// Op names a journal record's delta kind. The deltajournal analyzer
// enforces that every constant of this enum is encoded somewhere and
// covered by every //lint:journal-exhaustive decode/replay switch.
//
//lint:journal-ops
type Op string

// Journal record ops: one per entry in the Service delta vocabulary,
// plus the begin marker.
const (
	OpBegin           Op = "begin"
	OpAcquire         Op = "acquire"
	OpRelease         Op = "release"
	OpNodeReplicaLoss Op = "node_replica_loss"
	OpOffline         Op = "offline"
	OpBlacklist       Op = "blacklist"
	OpLinkFactor      Op = "link_factor"
)

// recordVersion is the journal wire-format version this build writes
// and accepts.
const recordVersion = 1

// Record is one journal entry. Fields beyond V/Seq/Op are populated per
// op; omitempty only ever drops zero values, which decode back to zero,
// so round-trips are exact.
type Record struct {
	V   int    `json:"v"`
	Seq uint64 `json:"seq"`
	Op  Op     `json:"op"`

	Kind string  `json:"kind,omitempty"` // acquire/release: "map" | "reduce"
	Node int     `json:"node,omitempty"` // node deltas: the node ID
	On   bool    `json:"on,omitempty"`   // offline/blacklist: the new flag value
	F    float64 `json:"f,omitempty"`    // link_factor: the factor
	Note string  `json:"note,omitempty"` // opaque client annotation, surfaced by Recover
}

// LinkState is one rescaled host link in a checkpoint (factor != 1).
type LinkState struct {
	Node   int     `json:"node"`
	Factor float64 `json:"factor"`
}

// Checkpoint is a full-state snapshot of a Service: everything needed
// to rebuild its scheduler-visible state over the same base deps. The
// replica slices preserve exact order — Nearest breaks distance ties by
// slice order, so order is decision-relevant. Note is the client's
// opaque state at the same cut, surfaced by Recover.
type Checkpoint struct {
	V          int         `json:"v"`
	Epoch      uint64      `json:"epoch"`
	Nodes      int         `json:"nodes"`
	UsedMap    []int       `json:"used_map"`
	UsedReduce []int       `json:"used_reduce"`
	Offline    []int       `json:"offline,omitempty"`
	Blacklist  []int       `json:"blacklist,omitempty"`
	Links      []LinkState `json:"links,omitempty"`
	Replicas   [][]int     `json:"replicas"`
	Note       string      `json:"note,omitempty"`
}

// envelope is the CRC wrapper around every journal/checkpoint line.
type envelope struct {
	CRC string          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// sealLine appends the enveloped, newline-terminated encoding of rec to
// buf.
func sealLine(buf *bytes.Buffer, rec any) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(buf, `{"crc":"%08x","rec":`, crc32.ChecksumIEEE(body))
	buf.Write(body)
	buf.WriteString("}\n")
	return nil
}

// openLine verifies one enveloped line and returns the raw record
// bytes. json.Unmarshal fills the RawMessage with the verbatim input
// slice, so the CRC check covers the exact bytes that were written.
func openLine(line []byte) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("bad envelope: %v", err)
	}
	var want uint32
	if _, err := fmt.Sscanf(env.CRC, "%08x", &want); err != nil || len(env.CRC) != 8 {
		return nil, fmt.Errorf("bad crc field %q", env.CRC)
	}
	if got := crc32.ChecksumIEEE(env.Rec); got != want {
		return nil, fmt.Errorf("crc mismatch: %08x != %08x", got, want)
	}
	return env.Rec, nil
}

// journalWriter appends sealed records to the underlying writer. Any
// append failure is sticky: once an append fails the journal can no
// longer promise a complete delta history, so every later append (and
// hence every later delta) fails with ErrJournalBroken.
type journalWriter struct {
	w   io.Writer
	buf bytes.Buffer
	err error
}

// append seals and writes one record.
func (j *journalWriter) append(rec *Record) error {
	if j.err != nil {
		return j.err
	}
	j.buf.Reset()
	if err := sealLine(&j.buf, rec); err != nil {
		j.err = fmt.Errorf("%w: %v", ErrJournalBroken, err)
		return j.err
	}
	if _, err := j.w.Write(j.buf.Bytes()); err != nil {
		j.err = fmt.Errorf("%w: %v", ErrJournalBroken, err)
		return j.err
	}
	return nil
}

// DecodedJournal is the result of decoding a journal stream: the valid
// record prefix in order, the seq of the last valid record, and the
// typed tail verdict.
type DecodedJournal struct {
	// Records holds the decoded delta records (begin markers are
	// consumed by the chain logic, not returned). A begin marker that
	// rewinds the chain drops the records it supersedes.
	Records []Record
	// Epoch is the seq of the last valid record (or the attach epoch of
	// the last begin marker, if later).
	Epoch uint64
	// Err is nil for a clean journal; otherwise it wraps
	// ErrTruncatedTail (damage on the final line — the crash shape) or
	// ErrCorruptRecord (damage with valid-looking lines after it, or a
	// broken seq chain). Records/Epoch still hold the valid prefix.
	Err error
	// ValidBytes is the byte length of the valid line prefix (every
	// line consumed without damage, including begin markers). A
	// recovering writer truncates its journal file to this length
	// before appending — damaged bytes must not stay in the middle of
	// the stream, or the next decode would stop at them.
	ValidBytes int64
}

// DecodeJournal reads a journal stream and returns the longest valid
// prefix. It never panics on malformed input — damage is reported
// through DecodedJournal.Err — and returns a non-nil error only when
// the underlying reader fails.
//
//lint:journal-exhaustive Op
func DecodeJournal(r io.Reader) (*DecodedJournal, error) {
	dec := &DecodedJournal{}
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	// Split on bare '\n' without the \r-stripping of bufio.ScanLines:
	// writers never emit \r, and exact tokens keep the ValidBytes
	// accounting exact (a stray \r is damage, not line decoration).
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	started := false
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		lineBytes := int64(len(raw)) + 1 // sealLine always terminates with \n
		if len(bytes.TrimSpace(raw)) == 0 {
			dec.Err = tailError(sc, fmt.Errorf("line %d: empty", line))
			return dec, nil
		}
		body, err := openLine(raw)
		if err != nil {
			dec.Err = tailError(sc, fmt.Errorf("line %d: %v", line, err))
			return dec, nil
		}
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			dec.Err = tailError(sc, fmt.Errorf("line %d: bad record: %v", line, err))
			return dec, nil
		}
		if rec.V != recordVersion {
			dec.Err = tailError(sc, fmt.Errorf("line %d: unknown version %d", line, rec.V))
			return dec, nil
		}
		switch rec.Op {
		case OpBegin:
			if started && rec.Seq > dec.Epoch {
				dec.Err = tailError(sc, fmt.Errorf("line %d: begin at seq %d ahead of chain at %d", line, rec.Seq, dec.Epoch))
				return dec, nil
			}
			// A begin marker logically truncates everything after its
			// epoch: the writer recovered to that epoch and re-attached.
			for len(dec.Records) > 0 && dec.Records[len(dec.Records)-1].Seq > rec.Seq {
				dec.Records = dec.Records[:len(dec.Records)-1]
			}
			dec.Epoch = rec.Seq
			started = true
		case OpAcquire, OpRelease, OpNodeReplicaLoss, OpOffline, OpBlacklist, OpLinkFactor:
			if _, ok := job.ParseTaskKind(rec.Kind); !ok && (rec.Op == OpAcquire || rec.Op == OpRelease) {
				dec.Err = tailError(sc, fmt.Errorf("line %d: unknown task kind %q", line, rec.Kind))
				return dec, nil
			}
			if started && rec.Seq != dec.Epoch+1 {
				dec.Err = tailError(sc, fmt.Errorf("line %d: seq %d breaks chain at %d", line, rec.Seq, dec.Epoch))
				return dec, nil
			}
			started = true
			dec.Epoch = rec.Seq
			dec.Records = append(dec.Records, rec)
		default:
			dec.Err = tailError(sc, fmt.Errorf("line %d: unknown op %q", line, rec.Op))
			return dec, nil
		}
		dec.ValidBytes += lineBytes
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			dec.Err = fmt.Errorf("%w: line %d: record too long", ErrCorruptRecord, line+1)
			return dec, nil
		}
		return dec, err
	}
	// A valid final line without a trailing newline (writers always add
	// one, but decoders must not trust input) would overcount by one.
	if dec.ValidBytes > cr.n {
		dec.ValidBytes = cr.n
	}
	return dec, nil
}

// countingReader tracks how many bytes the scanner consumed, bounding
// ValidBytes for inputs whose final line lacks a newline.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// tailError classifies damage at the current scan position: damage on
// the final line is the crash shape (truncated tail); damage with more
// lines after it is corruption.
func tailError(sc *bufio.Scanner, detail error) error {
	if sc.Scan() {
		return fmt.Errorf("%w: %v", ErrCorruptRecord, detail)
	}
	return fmt.Errorf("%w: %v", ErrTruncatedTail, detail)
}

// WriteCheckpoint writes a full-state snapshot of the service as a
// single CRC-protected line. note, if non-nil, runs under the read lock
// — where no noted delta's client hook can interleave — and its result
// rides in the same line, so client state and service state share one
// cut. A checkpoint plus the journal suffix past its epoch is a
// complete recovery input; callers typically checkpoint periodically
// and rotate the journal at the same cut.
func (s *Service) WriteCheckpoint(w io.Writer, note func() string) error {
	s.mu.RLock()
	cp := Checkpoint{
		V:     recordVersion,
		Epoch: s.epoch,
		Nodes: s.slots.Size(),
	}
	if note != nil {
		cp.Note = note()
	}
	cp.UsedMap = make([]int, cp.Nodes)
	cp.UsedReduce = make([]int, cp.Nodes)
	for i := 0; i < cp.Nodes; i++ {
		n := s.slots.Node(topology.NodeID(i))
		cp.UsedMap[i] = n.UsedSlots(job.MapKind)
		cp.UsedReduce[i] = n.UsedSlots(job.ReduceKind)
		if n.Offline() {
			cp.Offline = append(cp.Offline, i)
		}
		if n.Blacklisted() {
			cp.Blacklist = append(cp.Blacklist, i)
		}
	}
	for i, f := range s.linkFactors {
		if f != 1 {
			cp.Links = append(cp.Links, LinkState{Node: i, Factor: f})
		}
	}
	cp.Replicas = make([][]int, s.store.NumBlocks())
	for b := range cp.Replicas {
		reps := s.store.Replicas(hdfs.BlockID(b))
		row := make([]int, len(reps))
		for j, r := range reps {
			row[j] = int(r)
		}
		cp.Replicas[b] = row
	}
	s.mu.RUnlock()

	var buf bytes.Buffer
	if err := sealLine(&buf, &cp); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// DecodeCheckpoint reads and verifies a checkpoint written by
// WriteCheckpoint. All damage is reported as ErrBadCheckpoint — a
// checkpoint restores as a whole or not at all.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	body, err := openLine(bytes.TrimSpace(data))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(body, &cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if cp.V != recordVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrBadCheckpoint, cp.V)
	}
	if cp.Nodes < 1 || len(cp.UsedMap) != cp.Nodes || len(cp.UsedReduce) != cp.Nodes {
		return nil, fmt.Errorf("%w: inconsistent node counts", ErrBadCheckpoint)
	}
	return &cp, nil
}

// StartJournal attaches a delta journal: every subsequent delta is
// appended to w (inside the write lock, so records are totally ordered
// and seq-contiguous) before it is applied. The first record is a begin
// marker carrying the current epoch. Every client changes state only
// through the deltas, so the journal holds the complete history Recover
// needs.
//
// If an append ever fails, the journal is broken: the failing delta and
// every later one are rejected with ErrJournalBroken (the state did not
// change), until a fresh StartJournal.
func (s *Service) StartJournal(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &journalWriter{w: w}
	if err := j.append(&Record{V: recordVersion, Seq: s.epoch, Op: OpBegin}); err != nil {
		return err
	}
	s.journal = j
	return nil
}

// journalLocked appends one delta record under the write lock, stamping
// the seq the epoch will hold after the delta applies. It is called
// after validation and before mutation: a failed append rejects the
// delta with the state untouched. Every Apply* delta method
// must reach this helper (the deltajournal analyzer proves it).
//
// The record is copied only past the nil-journal return: the encoder
// append hands it to makes the copy escape, and a delta with no journal
// attached must not pay that heap allocation.
//
//lint:journal-append
func (s *Service) journalLocked(rec Record) error {
	if s.journal == nil {
		return nil
	}
	r := rec
	r.V = recordVersion
	r.Seq = s.epoch + 1
	return s.journal.append(&r)
}
