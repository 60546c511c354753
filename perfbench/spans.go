package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strconv"
)

// traceEvent is one Chrome trace_event record (the format cmd/obsvalidate
// -trace checks and Perfetto opens).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeSpans writes the traced run's span window as Chrome trace_event
// JSON: one thread per collector (the replay goroutine, then each shard's
// translator), timestamps in microseconds. Each span's args carry its own
// index, its parent's (-1 for none) and its request number.
func writeSpans(path string, t *traced) error {
	cols := append([]*collector{t.root}, t.shards...)
	var origin int64 = -1
	for _, c := range cols {
		for _, s := range c.spans {
			if origin < 0 || s.start < origin {
				origin = s.start
			}
		}
	}
	events := []traceEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "perfbench traced replay"}}}
	for tid, c := range cols {
		name := "replay"
		if tid > 0 {
			name = "shard " + strconv.Itoa(tid-1) + " translator"
		}
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", TID: tid, Args: map[string]any{"name": name}})
		for i, s := range c.spans {
			events = append(events, traceEvent{
				Name: layerNames[s.l],
				Ph:   "X",
				TS:   float64(s.start-origin) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				TID:  tid,
				Args: map[string]any{"span": i, "parent": s.parent, "req": s.req},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
