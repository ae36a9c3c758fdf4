package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// Block codec (shared by both format revisions)
//
//	'S' uvarint id, uvarint len, bytes        -- string-table entry
//	'R' encoded record                        -- one event
//	'I' uvarint len, bytes                    -- incomplete-history marker
//
// Strings (file names, function names, construct names) are interned: each
// distinct string is emitted once, before its first use.  Records refer to
// strings by table id.  The format is append-only so the monitor can flush
// partial traces on demand (the paper's extension of the AIMS monitor) and
// the debugger can consume the file while the target is still running.
//
// Version 2 ("TDBGTRC2") is a bare header followed by a raw block stream.
// Version 3 ("TDBGTRC3") wraps the same blocks in checksummed chunk frames
// and records a writer identity in the header; see frame.go for the
// envelope and the compatibility promise. An 'I' block may appear anywhere
// after the header; readers OR the flags together.

const (
	blockString     byte = 'S'
	blockRecord     byte = 'R'
	blockIncomplete byte = 'I'
)

// stringTable interns strings concurrently. New entries are assigned ids in
// order and their encoded 'S' blocks accumulate in pending; whichever writer
// next touches the file drains pending first, so every string block reaches
// the file before any record that references it. Lookups of already-interned
// strings (the overwhelmingly common case) take only a read lock.
type stringTable struct {
	mu      sync.RWMutex
	ids     map[string]uint64
	pending []byte // encoded 'S' blocks not yet written to the file
}

func (st *stringTable) intern(s string) uint64 {
	if s == "" {
		return 0 // 0 means "empty string"
	}
	st.mu.RLock()
	id, ok := st.ids[s]
	st.mu.RUnlock()
	if ok {
		return id
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok := st.ids[s]; ok {
		return id
	}
	id = uint64(len(st.ids) + 1)
	st.ids[s] = id
	st.pending = append(st.pending, blockString)
	st.pending = binary.AppendUvarint(st.pending, id)
	st.pending = binary.AppendUvarint(st.pending, uint64(len(s)))
	st.pending = append(st.pending, s...)
	return id
}

// take removes and returns the pending string blocks.
func (st *stringTable) take() []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	p := st.pending
	st.pending = nil
	return p
}

// snapshot returns the interned strings in id order (id i+1 at index i).
func (st *stringTable) snapshot() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, len(st.ids))
	for s, id := range st.ids {
		out[id-1] = s
	}
	return out
}

// syncer is the subset of *os.File the durability policies need. Writers
// whose underlying sink does not implement it (network connections, byte
// buffers) silently skip fsync.
type syncer interface{ Sync() error }

// FileWriter serializes records to a trace file. It is safe for concurrent
// use by multiple rank goroutines; for high rank counts prefer ShardedWriter,
// which batches per-rank buffers into this writer in large chunks.
//
// In the default version-3 format, blocks accumulate into a chunk buffer
// that is sealed — framed with its length and CRC32C — when it reaches
// WriterOptions.ChunkBytes, on Flush, and around every ShardedWriter batch.
// The configured SyncPolicy decides which chunk seals also reach stable
// storage via fsync.
type FileWriter struct {
	mu       sync.Mutex // guards everything below
	w        *bufio.Writer
	under    io.Writer
	sync     syncer // non-nil when under supports fsync
	opts     WriterOptions
	legacy   bool
	strings  stringTable
	scratch  []byte
	cbuf     []byte // version 3: chunk payload under construction
	frameBuf []byte // version 3: frame header/trailer scratch
	n        int    // records written
	out      int64  // bytes handed to the buffered writer (file size once flushed)
	lastSync time.Time
	om       *traceMetrics
	ib       *indexBuilder // non-nil when building a sidecar index at ingest
}

// NewFileWriter writes the header and returns a writer for numRanks ranks
// with default options (version-3 format, no fsync).
func NewFileWriter(w io.Writer, numRanks int) (*FileWriter, error) {
	return NewFileWriterOptions(w, numRanks, WriterOptions{})
}

// NewFileWriterOptions is NewFileWriter with explicit format and durability
// options.
func NewFileWriterOptions(w io.Writer, numRanks int, opts WriterOptions) (*FileWriter, error) {
	opts = opts.withDefaults()
	fw := &FileWriter{
		w:       bufio.NewWriterSize(w, 1<<16),
		under:   w,
		opts:    opts,
		legacy:  opts.LegacyV2,
		strings: stringTable{ids: make(map[string]uint64)},
		om:      metrics(),
	}
	if s, ok := w.(syncer); ok {
		fw.sync = s
	}
	// The builder attaches before the header is emitted so its running data
	// checksum covers every byte of the file, header included.
	if opts.BuildIndex && !opts.LegacyV2 {
		fw.ib = newIndexBuilder(numRanks, DefaultIndexStride, FormatVersion)
	}
	fw.lastSync = time.Now()
	if fw.legacy {
		if err := fw.put([]byte(fileMagicV2)); err != nil {
			return nil, fmt.Errorf("trace: writing magic: %w", err)
		}
		fw.scratch = binary.AppendUvarint(fw.scratch[:0], uint64(numRanks))
		if err := fw.put(fw.scratch); err != nil {
			return nil, fmt.Errorf("trace: writing header: %w", err)
		}
		return fw, nil
	}
	fw.scratch = appendHeaderV3(fw.scratch[:0], numRanks, opts.Writer)
	if err := fw.put(fw.scratch); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return fw, nil
}

// put writes to the buffered writer, accounting for the bytes: fw.out is
// the exact file size once buffers flush, which segment rotation consults
// without waiting for the 64 KiB buffer to drain.
func (fw *FileWriter) put(p []byte) error {
	n, err := fw.w.Write(p)
	fw.out += int64(n)
	if fw.ib != nil {
		fw.ib.crcBytes(p[:n])
	}
	return err
}

// BytesEmitted returns the bytes committed to the file so far plus the
// pending chunk payload — the file's size once buffers flush and the
// pending chunk seals.
func (fw *FileWriter) BytesEmitted() int64 {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.out + int64(len(fw.cbuf))
}

// internRecord resolves the four interned string fields of a record.
func (fw *FileWriter) internRecord(r *Record) (fileID, funcID, nameID, faultID uint64) {
	return fw.strings.intern(r.Loc.File), fw.strings.intern(r.Loc.Func),
		fw.strings.intern(r.Name), fw.strings.intern(r.Fault)
}

// maxRecordEncoded bounds the encoded size of one 'R' block: the block tag,
// kind, and wildcard bytes plus 16 varints of at most 10 bytes each.
const maxRecordEncoded = 3 + 16*binary.MaxVarintLen64

// appendRecord appends the encoded 'R' block for r, whose string fields have
// already been interned as the given table ids. Capacity for a worst-case
// record is reserved once up front so every field store is a plain indexed
// write — this is the innermost loop of both file writers, hot enough that
// per-field append bookkeeping shows up in profiles.
func appendRecord(buf []byte, r *Record, fileID, funcID, nameID, faultID uint64) []byte {
	if cap(buf)-len(buf) < maxRecordEncoded {
		grown := make([]byte, len(buf), 2*cap(buf)+maxRecordEncoded)
		copy(grown, buf)
		buf = grown
	}
	b := buf[:cap(buf)]
	n := len(buf)
	b[n] = blockRecord
	b[n+1] = byte(r.Kind)
	n += 2
	n = putUvarint(b, n, uint64(r.Rank))
	n = putUvarint(b, n, fileID)
	n = putUvarint(b, n, uint64(r.Loc.Line))
	n = putUvarint(b, n, funcID)
	n = putVarint(b, n, r.Start)
	n = putVarint(b, n, r.End-r.Start) // durations compress better
	n = putUvarint(b, n, r.Marker)
	n = putVarint(b, n, int64(r.Src))
	n = putVarint(b, n, int64(r.Dst))
	n = putVarint(b, n, int64(r.Tag))
	n = putUvarint(b, n, uint64(r.Bytes))
	n = putUvarint(b, n, r.MsgID)
	if r.WasWildcard {
		b[n] = 1
	} else {
		b[n] = 0
	}
	n++
	n = putUvarint(b, n, faultID)
	n = putUvarint(b, n, nameID)
	n = putVarint(b, n, r.Args[0])
	n = putVarint(b, n, r.Args[1])
	return buf[:n]
}

// putUvarint writes v at b[n:] — the caller has reserved the space — and
// returns the advanced cursor. The single-byte case is split out so the
// common small-field store inlines at each appendRecord call site.
func putUvarint(b []byte, n int, v uint64) int {
	if v < 0x80 {
		b[n] = byte(v)
		return n + 1
	}
	return putUvarintMulti(b, n, v)
}

func putUvarintMulti(b []byte, n int, v uint64) int {
	for v >= 0x80 {
		b[n] = byte(v) | 0x80
		n++
		v >>= 7
	}
	b[n] = byte(v)
	return n + 1
}

// putVarint is putUvarint with zig-zag encoding, matching binary.AppendVarint.
func putVarint(b []byte, n int, v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return putUvarint(b, n, uv)
}

// writePendingLocked drains the string-table deltas: directly to the file
// in the legacy format, into the pending chunk in version 3. Must run with
// fw.mu held, before any record bytes referencing those ids are written.
func (fw *FileWriter) writePendingLocked() error {
	p := fw.strings.take()
	if len(p) == 0 {
		return nil
	}
	if fw.legacy {
		return fw.put(p)
	}
	fw.cbuf = append(fw.cbuf, p...)
	return nil
}

// emitFrameLocked writes one sealed chunk frame whose payload is the
// concatenation of parts, without copying them together.
func (fw *FileWriter) emitFrameLocked(parts ...[]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	chunkStart := fw.out
	fw.frameBuf = appendFrameHeader(fw.frameBuf[:0], total)
	if err := fw.put(fw.frameBuf); err != nil {
		return err
	}
	for _, p := range parts {
		if err := fw.put(p); err != nil {
			return err
		}
	}
	fw.frameBuf = appendFrameCRC(fw.frameBuf[:0], parts...)
	if err := fw.put(fw.frameBuf); err != nil {
		return err
	}
	if fw.ib != nil {
		// frameBuf holds exactly the four payload-CRC bytes just written.
		fw.ib.sealChunk(chunkStart, fw.out-chunkStart, binary.LittleEndian.Uint32(fw.frameBuf))
	}
	fw.om.chunksSealed.Inc()
	return fw.afterChunkLocked()
}

// sealChunkLocked frames and writes the pending chunk buffer, if any.
func (fw *FileWriter) sealChunkLocked() error {
	if len(fw.cbuf) == 0 {
		return nil
	}
	err := fw.emitFrameLocked(fw.cbuf)
	fw.cbuf = fw.cbuf[:0]
	return err
}

// afterChunkLocked applies the durability policy after a chunk seal.
func (fw *FileWriter) afterChunkLocked() error {
	switch fw.opts.Sync {
	case SyncEveryChunk:
		return fw.fsyncLocked()
	case SyncInterval:
		if time.Since(fw.lastSync) >= fw.opts.SyncEvery {
			return fw.fsyncLocked()
		}
	}
	return nil
}

// fsyncLocked flushes buffered bytes and forces them to stable storage.
func (fw *FileWriter) fsyncLocked() error {
	fw.lastSync = time.Now()
	if err := fw.w.Flush(); err != nil {
		return err
	}
	if fw.sync == nil {
		return nil
	}
	if err := fw.sync.Sync(); err != nil {
		return fmt.Errorf("trace: fsync: %w", err)
	}
	fw.om.fsyncs.Inc()
	return nil
}

// writeChunk appends a batch of pre-encoded record blocks (nrec records) in
// one critical section, draining pending string deltas first. This is the
// entry point ShardedWriter batches through. In version 3 the batch becomes
// exactly one sealed chunk (string deltas prepended), so each ShardedWriter
// flush is independently checksummed.
func (fw *FileWriter) writeChunk(buf []byte, nrec int, metas []recMeta) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.legacy {
		if err := fw.writePendingLocked(); err != nil {
			return fmt.Errorf("trace: writing string table: %w", err)
		}
		if err := fw.put(buf); err != nil {
			return fmt.Errorf("trace: writing records: %w", err)
		}
		fw.n += nrec
		return nil
	}
	// Anything buffered from direct Writes must precede this batch in the
	// file, so seal it first.
	if err := fw.sealChunkLocked(); err != nil {
		return fmt.Errorf("trace: writing records: %w", err)
	}
	if fw.ib != nil {
		for i := range metas {
			m := &metas[i]
			fw.ib.record(int(m.rank), m.marker, m.start, m.fileID, int(m.line), m.funcID)
		}
	}
	pending := fw.strings.take()
	if err := fw.emitFrameLocked(pending, buf); err != nil {
		return fmt.Errorf("trace: writing records: %w", err)
	}
	fw.n += nrec
	return nil
}

// Write appends one record to the file.
func (fw *FileWriter) Write(r *Record) error {
	fileID, funcID, nameID, faultID := fw.internRecord(r)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.writePendingLocked(); err != nil {
		return fmt.Errorf("trace: writing string table: %w", err)
	}
	if fw.legacy {
		fw.scratch = appendRecord(fw.scratch[:0], r, fileID, funcID, nameID, faultID)
		if err := fw.put(fw.scratch); err != nil {
			return fmt.Errorf("trace: writing record: %w", err)
		}
		fw.n++
		return nil
	}
	fw.cbuf = appendRecord(fw.cbuf, r, fileID, funcID, nameID, faultID)
	if fw.ib != nil {
		fw.ib.record(r.Rank, r.Marker, r.Start, fileID, r.Loc.Line, funcID)
	}
	fw.n++
	if len(fw.cbuf) >= fw.opts.ChunkBytes {
		if err := fw.sealChunkLocked(); err != nil {
			return fmt.Errorf("trace: writing record: %w", err)
		}
	}
	return nil
}

// WriteIncomplete appends an incomplete-history marker: readers of the file
// will see a trace flagged Incomplete with the given reason. Used when the
// producer knows the history is partial (aborted run, lossy collection).
// In version 3 the marker's chunk is sealed immediately so the flag itself
// cannot be lost to a later torn write.
func (fw *FileWriter) WriteIncomplete(reason string) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.legacy {
		buf := fw.scratch[:0]
		buf = append(buf, blockIncomplete)
		buf = binary.AppendUvarint(buf, uint64(len(reason)))
		fw.scratch = buf
		if err := fw.put(buf); err != nil {
			return fmt.Errorf("trace: writing incomplete marker: %w", err)
		}
		if err := fw.put([]byte(reason)); err != nil {
			return fmt.Errorf("trace: writing incomplete marker: %w", err)
		}
		return nil
	}
	fw.cbuf = append(fw.cbuf, blockIncomplete)
	fw.cbuf = binary.AppendUvarint(fw.cbuf, uint64(len(reason)))
	fw.cbuf = append(fw.cbuf, reason...)
	if err := fw.sealChunkLocked(); err != nil {
		return fmt.Errorf("trace: writing incomplete marker: %w", err)
	}
	return nil
}

// Flush forces buffered records to the underlying writer, sealing the
// pending chunk so everything written so far is decodable by a concurrent
// reader. This is the monitor-flush-on-demand operation the debugger uses
// to obtain trace data during execution rather than post mortem.
func (fw *FileWriter) Flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.writePendingLocked(); err != nil {
		return err
	}
	if !fw.legacy {
		if err := fw.sealChunkLocked(); err != nil {
			return err
		}
	}
	return fw.w.Flush()
}

// Sync flushes and forces the file to stable storage, regardless of the
// configured policy. No-op fsync when the underlying writer is not a file.
func (fw *FileWriter) Sync() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.writePendingLocked(); err != nil {
		return err
	}
	if !fw.legacy {
		if err := fw.sealChunkLocked(); err != nil {
			return err
		}
	}
	return fw.fsyncLocked()
}

// Strings returns the writer's string table in id order: every string
// interned so far, including those whose defining blocks are still pending.
// Seeding a mid-file Scanner with it (NewSeededScanner) resolves every id
// the file has defined before the scanner's position.
func (fw *FileWriter) Strings() []string { return fw.strings.snapshot() }

// Count returns the number of records written so far.
func (fw *FileWriter) Count() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.n
}

// SealIndex returns the sidecar index built alongside the file, or nil when
// the writer was not constructed with WriterOptions.BuildIndex. Call after
// Flush (or Close): the index describes exactly the bytes emitted so far,
// so sealing before the final chunk frames would describe a shorter file.
func (fw *FileWriter) SealIndex() *SegmentIndex {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.ib == nil {
		return nil
	}
	return fw.ib.finish(fw.strings.snapshot(), fw.out)
}

// Close flushes the writer. It does not close the underlying writer, which
// the caller owns.
func (fw *FileWriter) Close() error { return fw.Flush() }

// ChunkError reports a damaged chunk frame: its checksum failed, its length
// overran the file, or the bytes at Offset are not a frame at all. The
// salvage reader treats it as the signal to resynchronize.
type ChunkError struct {
	Offset int64 // file offset of the frame (or where one was expected)
	Err    error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("trace: damaged chunk at byte %d: %v", e.Offset, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// Scanner streams records from a trace file of either format revision.
//
// Next decodes into a scratch record owned by the Scanner: the returned
// pointer is valid only until the following Next call, exactly like a
// RecordCursor. Callers that retain records copy them (every loader does).
type Scanner struct {
	r        *bufio.Reader
	version  int
	writer   string // header identity (version 3)
	numRanks int
	strings  []string // id-1 indexed
	offset   int64    // bytes consumed from the underlying reader
	rec      Record   // scratch for Next; reused across calls

	framed     bool   // version >= 3: blocks come from verified chunks
	chunk      []byte // current chunk payload
	cpos       int    // read position within chunk
	chunkStart int64  // file offset of the current chunk's frame

	incomplete       bool // an 'I' block was seen
	incompleteReason string

	strIDs map[string]uint64 // lazy reverse of strings; see fieldID
}

// NewScanner validates the header and returns a streaming reader. The
// format revision is sniffed from the 8-byte magic; version-2 files decode
// exactly as they always have.
func NewScanner(r io.Reader) (*Scanner, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 8)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	sc := &Scanner{r: br, offset: 8}
	switch string(magic) {
	case fileMagicV2:
		sc.version = FormatVersionLegacy
		n, err := sc.readUvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: reading rank count: %w", err)
		}
		sc.numRanks = int(n)
		return sc, nil
	case fileMagicV3:
		sc.version = FormatVersion
		if err := sc.readHeaderV3(); err != nil {
			return nil, err
		}
		sc.framed = true
		return sc, nil
	default:
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
}

// readHeaderV3 reads the version-3 header body (after the magic) and
// verifies its checksum.
func (sc *Scanner) readHeaderV3() error {
	var body []byte
	readVar := func(field string) (uint64, error) {
		v, err := binary.ReadUvarint(byteReaderFunc(func() (byte, error) {
			b, err := sc.r.ReadByte()
			if err == nil {
				sc.offset++
				body = append(body, b)
			}
			return b, err
		}))
		if err != nil {
			return 0, fmt.Errorf("trace: reading %s: %w", field, err)
		}
		return v, nil
	}
	nr, err := readVar("rank count")
	if err != nil {
		return err
	}
	wl, err := readVar("writer identity")
	if err != nil {
		return err
	}
	if wl > maxWriterLen {
		return fmt.Errorf("trace: writer identity length %d out of range", wl)
	}
	buf := make([]byte, wl+4)
	if _, err := io.ReadFull(sc.r, buf); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	sc.offset += int64(len(buf))
	body = append(body, buf[:wl]...)
	if crcChunk(body) != binary.LittleEndian.Uint32(buf[wl:]) {
		return errBadHeaderCRC
	}
	sc.numRanks = int(nr)
	sc.writer = string(buf[:wl])
	return nil
}

// loadChunk reads and verifies the next chunk frame. io.EOF at a clean end
// of file; a *ChunkError for a damaged frame.
func (sc *Scanner) loadChunk() error {
	sc.chunkStart = sc.offset
	var hdr [4]byte
	n, err := io.ReadFull(sc.r, hdr[:])
	if err == io.EOF {
		return io.EOF
	}
	sc.offset += int64(n)
	if err != nil {
		return &ChunkError{Offset: sc.chunkStart, Err: fmt.Errorf("truncated frame: %w", err)}
	}
	if hdr != chunkMagic {
		return &ChunkError{Offset: sc.chunkStart, Err: fmt.Errorf("bad chunk magic %q", hdr[:])}
	}
	plen, err := binary.ReadUvarint(byteReaderFunc(func() (byte, error) {
		b, err := sc.r.ReadByte()
		if err == nil {
			sc.offset++
		}
		return b, err
	}))
	if err != nil {
		return &ChunkError{Offset: sc.chunkStart, Err: fmt.Errorf("chunk length: %w", err)}
	}
	if plen > maxChunkPayload {
		return &ChunkError{Offset: sc.chunkStart, Err: fmt.Errorf("chunk length %d out of range", plen)}
	}
	if cap(sc.chunk) < int(plen) {
		sc.chunk = make([]byte, plen)
	}
	sc.chunk = sc.chunk[:plen]
	if _, err := io.ReadFull(sc.r, sc.chunk); err != nil {
		return &ChunkError{Offset: sc.chunkStart, Err: fmt.Errorf("chunk payload: %w", err)}
	}
	var crc [4]byte
	if _, err := io.ReadFull(sc.r, crc[:]); err != nil {
		sc.offset += int64(len(sc.chunk))
		return &ChunkError{Offset: sc.chunkStart, Err: fmt.Errorf("chunk checksum: %w", err)}
	}
	sc.offset += int64(len(sc.chunk)) + 4
	if crcChunk(sc.chunk) != binary.LittleEndian.Uint32(crc[:]) {
		metrics().crcErrors.Inc()
		sc.chunk = sc.chunk[:0]
		sc.cpos = 0
		return &ChunkError{Offset: sc.chunkStart, Err: fmt.Errorf("checksum mismatch")}
	}
	sc.cpos = 0
	return nil
}

// NumRanks returns the rank count from the file header.
func (sc *Scanner) NumRanks() int { return sc.numRanks }

// Version returns the file's format revision (2 or 3).
func (sc *Scanner) Version() int { return sc.version }

// Writer returns the writer identity from a version-3 header ("" for
// legacy files).
func (sc *Scanner) Writer() string { return sc.writer }

// Incomplete reports whether an incomplete-history marker has been scanned
// so far, and its reason.
func (sc *Scanner) Incomplete() (bool, string) { return sc.incomplete, sc.incompleteReason }

// Offset returns a rescannable position for the next block: in a legacy
// file the exact byte offset, in a framed file the offset of the chunk
// frame containing it (chunk frames are the only positions a reader can
// verify from). The Index stores these for later seeks.
func (sc *Scanner) Offset() int64 {
	if sc.framed && sc.cpos < len(sc.chunk) {
		return sc.chunkStart
	}
	return sc.offset
}

func (sc *Scanner) readByte() (byte, error) {
	if sc.framed {
		if sc.cpos >= len(sc.chunk) {
			return 0, io.ErrUnexpectedEOF // block truncated by chunk boundary
		}
		b := sc.chunk[sc.cpos]
		sc.cpos++
		return b, nil
	}
	b, err := sc.r.ReadByte()
	if err == nil {
		sc.offset++
	}
	return b, err
}

// readFull returns the next n block-stream bytes (string payloads).
func (sc *Scanner) readFull(n int) ([]byte, error) {
	if sc.framed {
		if sc.cpos+n > len(sc.chunk) || n < 0 {
			return nil, io.ErrUnexpectedEOF
		}
		b := sc.chunk[sc.cpos : sc.cpos+n]
		sc.cpos += n
		return b, nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(sc.r, buf); err != nil {
		return nil, err
	}
	sc.offset += int64(n)
	return buf, nil
}

// errVarintOverflow matches the stdlib binary.ReadUvarint overflow error
// byte for byte, so hand-rolled decoding reports identical diagnostics.
var errVarintOverflow = fmt.Errorf("binary: varint overflows a 64-bit integer")

// readUvarint is binary.ReadUvarint inlined over sc.readByte: the stdlib
// version takes an io.ByteReader, and wrapping the bound method in an
// interface allocates a closure per call — sixteen allocations per record
// on the serial decode path. Semantics (including the EOF-after-first-byte
// promotion and the overflow error text) are identical.
func (sc *Scanner) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := sc.readByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return x, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, errVarintOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return x, errVarintOverflow
}

func (sc *Scanner) readVarint() (int64, error) {
	ux, err := sc.readUvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }

func (sc *Scanner) str(id uint64) (string, error) {
	if id == 0 {
		return "", nil
	}
	if int(id) > len(sc.strings) {
		return "", fmt.Errorf("trace: string id %d not yet defined", id)
	}
	return sc.strings[id-1], nil
}

// SeedStrings installs a previously collected string table, allowing a
// Scanner positioned mid-file (via Index offsets) to resolve string ids that
// were defined earlier in the file.
func (sc *Scanner) SeedStrings(table []string) { sc.strings = append([]string(nil), table...) }

// Strings returns a copy of the string table collected so far.
func (sc *Scanner) Strings() []string { return append([]string(nil), sc.strings...) }

// Next returns the next record, or io.EOF at end of file. A damaged chunk
// in a framed file surfaces as a *ChunkError carrying the frame's offset.
func (sc *Scanner) Next() (*Record, error) {
	for {
		if sc.framed && sc.cpos >= len(sc.chunk) {
			if err := sc.loadChunk(); err != nil {
				return nil, err
			}
			continue // the chunk may be empty in degenerate files
		}
		tag, err := sc.readByte()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading block tag: %w", err)
		}
		switch tag {
		case blockString:
			id, err := sc.readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: string id: %w", err)
			}
			n, err := sc.readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: string len: %w", err)
			}
			buf, err := sc.readFull(int(n))
			if err != nil {
				return nil, fmt.Errorf("trace: string bytes: %w", err)
			}
			if int(id) != len(sc.strings)+1 {
				// Mid-file rescans revisit string blocks already seeded;
				// tolerate redefinitions that match the table.
				s, serr := sc.str(id)
				if serr != nil || s != string(buf) {
					return nil, fmt.Errorf("trace: string id %d out of order", id)
				}
				continue
			}
			sc.strings = append(sc.strings, string(buf))
		case blockRecord:
			return sc.readRecord()
		case blockIncomplete:
			n, err := sc.readUvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: incomplete marker len: %w", err)
			}
			buf, err := sc.readFull(int(n))
			if err != nil {
				return nil, fmt.Errorf("trace: incomplete marker reason: %w", err)
			}
			if !sc.incomplete {
				sc.incompleteReason = string(buf)
			}
			sc.incomplete = true
		default:
			return nil, fmt.Errorf("trace: unknown block tag %q at offset %d", tag, sc.offset-1)
		}
	}
}

func (sc *Scanner) readRecord() (*Record, error) {
	r := &sc.rec
	*r = Record{}
	kb, err := sc.readByte()
	if err != nil {
		return nil, fmt.Errorf("trace: record kind: %w", err)
	}
	if int(kb) >= numKinds {
		return nil, fmt.Errorf("trace: invalid record kind %d", kb)
	}
	r.Kind = Kind(kb)

	fail := func(field string, err error) (*Record, error) {
		return nil, fmt.Errorf("trace: record %s: %w", field, err)
	}
	var u uint64
	var v int64
	if u, err = sc.readUvarint(); err != nil {
		return fail("rank", err)
	}
	r.Rank = int(u)
	if u, err = sc.readUvarint(); err != nil {
		return fail("file", err)
	}
	if r.Loc.File, err = sc.str(u); err != nil {
		return nil, err
	}
	if u, err = sc.readUvarint(); err != nil {
		return fail("line", err)
	}
	r.Loc.Line = int(u)
	if u, err = sc.readUvarint(); err != nil {
		return fail("func", err)
	}
	if r.Loc.Func, err = sc.str(u); err != nil {
		return nil, err
	}
	if v, err = sc.readVarint(); err != nil {
		return fail("start", err)
	}
	r.Start = v
	if v, err = sc.readVarint(); err != nil {
		return fail("duration", err)
	}
	r.End = r.Start + v
	if u, err = sc.readUvarint(); err != nil {
		return fail("marker", err)
	}
	r.Marker = u
	if v, err = sc.readVarint(); err != nil {
		return fail("src", err)
	}
	r.Src = int(v)
	if v, err = sc.readVarint(); err != nil {
		return fail("dst", err)
	}
	r.Dst = int(v)
	if v, err = sc.readVarint(); err != nil {
		return fail("tag", err)
	}
	r.Tag = int(v)
	if u, err = sc.readUvarint(); err != nil {
		return fail("bytes", err)
	}
	r.Bytes = int(u)
	if u, err = sc.readUvarint(); err != nil {
		return fail("msgid", err)
	}
	r.MsgID = u
	wb, err := sc.readByte()
	if err != nil {
		return fail("wildcard", err)
	}
	r.WasWildcard = wb != 0
	if u, err = sc.readUvarint(); err != nil {
		return fail("fault", err)
	}
	if r.Fault, err = sc.str(u); err != nil {
		return nil, err
	}
	if u, err = sc.readUvarint(); err != nil {
		return fail("name", err)
	}
	if r.Name, err = sc.str(u); err != nil {
		return nil, err
	}
	if v, err = sc.readVarint(); err != nil {
		return fail("arg0", err)
	}
	r.Args[0] = v
	if v, err = sc.readVarint(); err != nil {
		return fail("arg1", err)
	}
	r.Args[1] = v
	return r, nil
}

// ReadAll loads an entire trace file into memory. Any error — including
// mid-file truncation or a failed chunk checksum — is fatal; use
// ReadAllPartial to salvage a prefix or ReadAllSalvage to also recover the
// tail beyond damaged chunks.
//
// Deprecated: consumers outside internal/trace and internal/store should
// open traces through store.Open, which negotiates the right loader.
func ReadAll(r io.Reader) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	t := New(sc.NumRanks())
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			if inc, reason := sc.Incomplete(); inc {
				t.MarkIncomplete(reason)
			}
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		if _, err := t.Append(*rec); err != nil {
			return nil, err
		}
	}
}

// ReadAllIndexed is ReadAll with the per-rank slices preallocated from the
// exact record counts of a previously built index, so loading large traces
// does not pay repeated slice regrowth.
//
// Deprecated: consumers outside internal/trace and internal/store should
// open traces through store.Open with Options.Index.
func ReadAllIndexed(r io.Reader, ix *Index) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	t := New(sc.NumRanks())
	if ix != nil {
		t.Grow(ix.Counts())
	}
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			if inc, reason := sc.Incomplete(); inc {
				t.MarkIncomplete(reason)
			}
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		if _, err := t.Append(*rec); err != nil {
			return nil, err
		}
	}
}

// ReadAllPartial loads the clean prefix of a trace file. A damaged or
// truncated tail stops the scan and marks the result Incomplete instead of
// failing, so a history cut off by a crash stays analyzable; the reason
// records the byte offset of the damage and the per-rank extent of what was
// salvaged. Only a missing/corrupt header (no decodable prefix at all) is
// an error. ReadAllSalvage additionally recovers records beyond the damage.
//
// Deprecated: consumers outside internal/trace and internal/store should
// open traces through store.Open with ModePartial.
func ReadAllPartial(r io.Reader) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	t := New(sc.NumRanks())
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.MarkIncomplete(partialReason("trace file truncated", sc, t, err))
			break
		}
		if _, err := t.Append(*rec); err != nil {
			t.MarkIncomplete(partialReason("trace file damaged", sc, t, err))
			break
		}
	}
	if inc, reason := sc.Incomplete(); inc {
		t.MarkIncomplete(reason)
	}
	return t, nil
}

// partialReason renders the Incomplete reason for a prefix salvage: where
// the damage begins (byte offset), what was recovered up to it (per-rank
// record extent), and the underlying decode error.
func partialReason(what string, sc *Scanner, t *Trace, cause error) string {
	return partialReasonAt(what, sc.Offset(), rankExtentSummary(t), cause)
}

// partialReasonAt is partialReason for callers that track the offset and
// salvaged-prefix summary themselves (the streaming salvage path).
func partialReasonAt(what string, off int64, summary string, cause error) string {
	var ce *ChunkError
	if asChunkError(cause, &ce) {
		off = ce.Offset
	}
	return fmt.Sprintf("%s at byte %d (salvaged prefix: %s): %v", what, off, summary, cause)
}

// asChunkError unwraps cause into a *ChunkError without importing errors
// (kept local: errors.As on a double pointer reads worse than this).
func asChunkError(cause error, out **ChunkError) bool {
	for cause != nil {
		if ce, ok := cause.(*ChunkError); ok {
			*out = ce
			return true
		}
		u, ok := cause.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		cause = u.Unwrap()
	}
	return false
}

// rankExtentSummary renders "N records, ranks r0..rk to markers m0..mk" for
// damage reports.
func rankExtentSummary(t *Trace) string {
	total := 0
	lo, hi := -1, -1
	var maxMarker uint64
	for r := 0; r < t.NumRanks(); r++ {
		n := t.RankLen(r)
		if n == 0 {
			continue
		}
		total += n
		if lo < 0 {
			lo = r
		}
		hi = r
		if m := t.Rank(r)[n-1].Marker; m > maxMarker {
			maxMarker = m
		}
	}
	if total == 0 {
		return "0 records"
	}
	return fmt.Sprintf("%d records, ranks %d-%d, last marker %d", total, lo, hi, maxMarker)
}

// WriteAll serializes an in-memory trace in merged time order, preserving an
// Incomplete flag as a trailer block.
func WriteAll(w io.Writer, t *Trace) error {
	return WriteAllOptions(w, t, WriterOptions{})
}

// WriteAllOptions is WriteAll with explicit format and durability options.
func WriteAllOptions(w io.Writer, t *Trace, opts WriterOptions) error {
	_, err := writeAll(w, t, opts)
	return err
}

// writeAll is WriteAllOptions returning the flushed writer, so callers that
// asked for an ingest-built index can seal it (WriteFileAtomic).
func writeAll(w io.Writer, t *Trace, opts WriterOptions) (*FileWriter, error) {
	fw, err := NewFileWriterOptions(w, t.NumRanks(), opts)
	if err != nil {
		return nil, err
	}
	for _, id := range t.MergedOrder() {
		if err := fw.Write(t.MustAt(id)); err != nil {
			return nil, err
		}
	}
	if t.Incomplete() {
		if err := fw.WriteIncomplete(t.IncompleteReason()); err != nil {
			return nil, err
		}
	}
	return fw, fw.Close()
}
