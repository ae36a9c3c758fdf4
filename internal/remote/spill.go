package remote

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"tracedbg/internal/iofault"
	"tracedbg/internal/obs"
	"tracedbg/internal/trace"
)

// spillChunkRecords is how many spilled records share one chunk frame. The
// spill seals a chunk, and adds a seek-table entry, every spillChunkRecords
// appends, so a seek decodes at most this many records it does not return.
const spillChunkRecords = 512

// spillFile is the on-disk part of a client's retransmission buffer: an
// append-only version-3 trace file holding records 1 .. n in emit order,
// never pruned. Reads go through one forward cursor: a read that starts
// where the previous one stopped continues without reopening anything, and
// any other start seeks through a sparse table of chunk boundaries. All
// methods run under the owning Client's mutex.
type spillFile struct {
	fsys     iofault.FS
	path     string
	f        iofault.File
	fw       *trace.FileWriter
	numRanks int
	n        uint64      // records appended
	sealed   uint64      // records in sealed chunks, readable from the file
	seeks    []spillSeek // one per chunk seal, ascending; seeks[0] is the first chunk
	rd       *spillReader
}

// spillSeek says the chunk frame at byte offset begins with record
// records+1.
type spillSeek struct {
	records uint64
	offset  int64
}

// spillReader is the readback cursor: the next record its scanner returns
// is record pos+1.
type spillReader struct {
	f   iofault.File
	sc  *trace.Scanner
	pos uint64
}

// createSpill creates an empty spill file in a fresh, randomly named
// directory under dir. The directory is private to the user (0700): the
// spill holds the program's records, and dir is usually the shared temp
// directory.
func createSpill(fsys iofault.FS, dir string, numRanks int, opts trace.WriterOptions) (*spillFile, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, err
	}
	priv := filepath.Join(dir, "tdbg-spill-"+hex.EncodeToString(b[:]))
	if err := fsys.MkdirAll(priv, 0o700); err != nil {
		return nil, err
	}
	path := filepath.Join(priv, "spill.trace")
	f, err := fsys.Create(path)
	if err != nil {
		fsys.Remove(priv) //nolint:ioerr // best-effort cleanup of the failed spill directory
		return nil, err
	}
	fw, err := trace.NewFileWriterOptions(&countingWriter{w: f, c: metrics().clientSpillBytes}, numRanks, opts)
	if err != nil {
		f.Close()         //nolint:ioerr // error path; the spill-setup error is surfaced
		fsys.Remove(path) //nolint:ioerr // best-effort cleanup of the failed spill file
		fsys.Remove(priv) //nolint:ioerr // best-effort cleanup of the failed spill directory
		return nil, err
	}
	return &spillFile{
		fsys: fsys, path: path, f: f, fw: fw, numRanks: numRanks,
		seeks: []spillSeek{{0, fw.BytesEmitted()}},
	}, nil
}

// append adds rec as record n+1, sealing a chunk every spillChunkRecords.
func (s *spillFile) append(rec *trace.Record) error {
	if err := s.fw.Write(rec); err != nil {
		return err
	}
	s.n++
	if s.n-s.sealed >= spillChunkRecords {
		return s.seal()
	}
	return nil
}

// seal frames the pending records, hands them to the file and notes where
// the next chunk begins. No fsync: the spill is private to this process and
// deleted at Close, so nothing reads it after a crash.
func (s *spillFile) seal() error {
	if s.sealed == s.n {
		return nil
	}
	if err := s.fw.Flush(); err != nil {
		return err
	}
	s.sealed = s.n
	s.seeks = append(s.seeks, spillSeek{s.n, s.fw.BytesEmitted()})
	return nil
}

// read passes records from+1 .. to (to <= n) to fn in order. The record
// fn receives is valid only for the call.
func (s *spillFile) read(from, to uint64, fn func(*trace.Record) error) error {
	if to > s.sealed {
		if err := s.seal(); err != nil {
			return err
		}
	}
	if err := s.position(from); err != nil {
		return err
	}
	rd := s.rd
	start := rd.pos
	defer func() { metrics().clientSpillReadback.Add(rd.pos - start) }()
	for rd.pos < to {
		rec, err := rd.sc.Next()
		if err != nil {
			s.closeReader() // the scanner's state is unknown; the next read reopens
			return fmt.Errorf("spill readback at record %d: %w", rd.pos+1, err)
		}
		rd.pos++
		if rd.pos > from {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// position leaves the cursor at or before record from+1, at most one chunk
// before it. A cursor already in that span stays where it is; otherwise a
// new one opens at the chunk holding record from+1.
func (s *spillFile) position(from uint64) error {
	at := s.seeks[sort.Search(len(s.seeks), func(i int) bool { return s.seeks[i].records > from })-1]
	if s.rd != nil && s.rd.pos >= at.records && s.rd.pos <= from {
		return nil
	}
	s.closeReader()
	f, err := s.fsys.Open(s.path)
	if err != nil {
		return err
	}
	if sk, ok := f.(io.Seeker); ok {
		_, err = sk.Seek(at.offset, io.SeekStart)
	} else {
		_, err = io.CopyN(io.Discard, f, at.offset) // a seam file without Seek
	}
	if err != nil {
		f.Close() //nolint:ioerr // read-only handle; the seek error is surfaced
		return fmt.Errorf("spill seek: %w", err)
	}
	s.rd = &spillReader{
		f:   f,
		sc:  trace.NewSeededScanner(f, trace.FormatVersion, s.numRanks, s.fw.Strings()),
		pos: at.records,
	}
	return nil
}

func (s *spillFile) closeReader() {
	if s.rd != nil {
		s.rd.f.Close() //nolint:ioerr // read-only handle
		s.rd = nil
	}
}

// remove closes every handle and deletes the file and its directory. The
// spill is discard-only once its client closes.
func (s *spillFile) remove() {
	s.closeReader()
	s.f.Close()                         //nolint:ioerr // discard-only; see above
	s.fsys.Remove(s.path)               //nolint:ioerr // discard-only; see above
	s.fsys.Remove(filepath.Dir(s.path)) //nolint:ioerr // discard-only; see above
	s.fw, s.seeks = nil, nil
}

// countingWriter counts bytes flowing to the spill file.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}
