// Streaming support for the continuous pipeline: Tail/TailTSV read only the
// newline-terminated prefix of an append-only log so a concurrent writer's
// half-appended final line is never consumed, and Cursor persists the resume
// offset (plus the CRC of the model it was published with) durably and
// atomically beside the log. Together they give the crash-safety contract
// the pipeline relies on: after a kill -9 at any instant, re-tailing from
// the stored cursor neither double-counts nor drops an action.
package actionlog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"inf2vec/internal/atomicfile"
	"inf2vec/internal/frame"
)

// Tail reads actions from r, which must be positioned at absolute byte
// offset from in the underlying log, and returns them together with the
// offset of the first unconsumed byte. Only newline-terminated lines are
// consumed: a final line without a newline — even one that happens to parse,
// since a writer may still be appending digits to it — is left for the next
// call, so the returned offset is always a stable resume point on a line
// boundary. Blank and '#'-comment lines are consumed and skipped. A
// newline-terminated line that fails to parse is a permanent error (the log
// is corrupt, retrying cannot help); the actions and offset accumulated
// before it are still returned.
func Tail(r io.Reader, from int64) ([]Action, int64, error) {
	sc := newLineScanner(r)
	sc.off = from
	var actions []Action
	next := from
	lineNo := 0
	for {
		line, terminated, err := sc.next()
		if errors.Is(err, io.EOF) {
			return actions, next, nil
		}
		if err != nil {
			return actions, next, fmt.Errorf("actionlog: tailing log: %w", err)
		}
		if !terminated {
			return actions, next, nil
		}
		lineNo++
		a, skip, perr := parseLine(line, lineNo)
		if perr != nil {
			return actions, next, fmt.Errorf("actionlog: at byte %d: %w", next, perr)
		}
		if !skip {
			actions = append(actions, a)
		}
		next = sc.off
	}
}

// TailTSV opens path and tails it from byte offset from; see Tail. An offset
// beyond the current file size means the log was truncated or replaced out
// from under the cursor and is reported as an error rather than silently
// re-reading from an arbitrary position.
func TailTSV(path string, from int64) ([]Action, int64, error) {
	if from < 0 {
		return nil, from, fmt.Errorf("actionlog: negative tail offset %d", from)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, from, fmt.Errorf("actionlog: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, from, fmt.Errorf("actionlog: %w", err)
	}
	if from > fi.Size() {
		return nil, from, fmt.Errorf("actionlog: tail offset %d beyond log size %d (log truncated?)", from, fi.Size())
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return nil, from, fmt.Errorf("actionlog: %w", err)
	}
	return Tail(f, from)
}

// CursorVersion is the current cursor file format version.
const CursorVersion = 1

var cursorMagic = [6]byte{'I', '2', 'V', 'C', 'U', 'R'}

// ErrBadCursor is returned by LoadCursor when the file exists but is not a
// valid cursor: wrong magic or size, unsupported version, or CRC mismatch.
// Treating it as distinct from fs.ErrNotExist lets a caller log the
// corruption and rebuild from offset zero instead of crashing.
var ErrBadCursor = errors.New("actionlog: not a valid cursor file")

// Cursor is the pipeline's durable resume state: how much of the action log
// the currently published model has consumed, and the CRC-32 (IEEE) of that
// model file so a restart can tell whether an in-flight publish completed.
type Cursor struct {
	// Offset is the first unconsumed byte of the action log.
	Offset int64
	// ModelCRC is the CRC-32 (IEEE) of the complete model file published for
	// this offset; zero when no model has been published yet.
	ModelCRC uint32
}

// SaveCursor atomically and durably writes the cursor to path. The file is
// 24 bytes, framed by internal/frame:
//
//	magic "I2VCUR" | version byte (1) | reserved zero byte |
//	int64 offset | uint32 model CRC | uint32 CRC-32 (IEEE) of the first 20 bytes
func SaveCursor(path string, c Cursor) error {
	return atomicfile.Write(path, encodeCursor(c))
}

// encodeCursor returns the cursor's file bytes, assembled in memory so the
// file gets them in one write.
func encodeCursor(c Cursor) []byte {
	var buf bytes.Buffer
	fw := frame.NewWriter(&buf, cursorMagic, CursorVersion)
	fw.Put(c.Offset, c.ModelCRC)
	fw.Trailer() // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// LoadCursor reads a cursor written by SaveCursor, verifying the CRC trailer
// before trusting any field. A missing file is reported verbatim (test with
// errors.Is(err, fs.ErrNotExist)); a present-but-invalid file is reported as
// ErrBadCursor.
func LoadCursor(path string) (Cursor, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Cursor{}, fmt.Errorf("actionlog: %w", err)
	}
	return decodeCursor(bytes.NewReader(raw))
}

// decodeCursor reads one cursor from r, consuming it exactly.
func decodeCursor(r io.Reader) (Cursor, error) {
	fr, err := frame.NewReader(r, cursorMagic, ErrBadCursor)
	if err != nil {
		return Cursor{}, err
	}
	if fr.Version != CursorVersion {
		return Cursor{}, fr.Errorf("unsupported version %d", fr.Version)
	}
	var c Cursor
	if err := fr.Get("cursor", &c.Offset, &c.ModelCRC); err != nil {
		return Cursor{}, err
	}
	if err := fr.Trailer(); err != nil {
		return Cursor{}, err
	}
	if err := fr.End(); err != nil {
		return Cursor{}, err
	}
	if c.Offset < 0 {
		return Cursor{}, fr.Errorf("negative offset %d", c.Offset)
	}
	return c, nil
}
