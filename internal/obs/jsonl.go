package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// JSONLWriter serializes values as one JSON object per line — the training
// telemetry sink. Writes are serialized by a mutex, so one writer can be
// shared by concurrent emitters.
type JSONLWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	f   *os.File // nil once closed
}

// CreateJSONL creates (truncating) the file at path and returns a writer
// that owns it; Close flushes and closes the file.
func CreateJSONL(path string) (*JSONLWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry sink: %w", err)
	}
	return &JSONLWriter{enc: json.NewEncoder(f), f: f}, nil
}

// Write appends v as one JSON line.
func (j *JSONLWriter) Write(v any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enc.Encode(v)
}

// Close closes the file; closing again is a no-op.
func (j *JSONLWriter) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
