package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer.
// Spans of one job share its id (0 for calls not tied to a job).
type span struct {
	ID        int64   `json:"id"`
	Name      string  `json:"name"`
	WallStart int64   `json:"wall_start_ns"`
	WallEnd   int64   `json:"wall_end_ns"`
	SimStart  float64 `json:"sim_start_s,omitempty"`
	SimEnd    float64 `json:"sim_end_s,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how the untraced runs pay for no tracing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// wall records a span from t0 to now on the host clock.
func (l *spanLog) wall(id int64, name string, t0 time.Time) {
	if l == nil {
		return
	}
	l.add(span{ID: id, Name: name, WallStart: t0.UnixNano(), WallEnd: time.Now().UnixNano()})
}

// both records a span on the host clock and the simulated clock.
func (l *spanLog) both(id int64, name string, t0 time.Time, sim0, sim1 float64) {
	if l == nil {
		return
	}
	l.add(span{ID: id, Name: name, WallStart: t0.UnixNano(), WallEnd: time.Now().UnixNano(), SimStart: sim0, SimEnd: sim1})
}

// durations returns the host durations of every span with the name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d []float64
	for _, s := range l.spans {
		if s.Name == name {
			d = append(d, float64(s.WallEnd-s.WallStart))
		}
	}
	return d
}

// write stores the spans as JSON at path, creating its directory.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string][]span{"spans": l.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
