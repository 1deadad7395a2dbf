package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: renders a Tracer's bounded cycle window in
// the Trace Event Format (the JSON that chrome://tracing and Perfetto's
// legacy loader consume), so a pipeline window can be inspected on a real
// timeline instead of the text pipeview. One simulated cycle maps to one
// microsecond of trace time; stages render as three threads (fetch,
// decode, backend) under one process.

// chromeEvent is one trace-event record. Only the fields we emit.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Stage thread ids within the trace process.
const (
	tidFetch   = 1
	tidDecode  = 2
	tidBackend = 3
)

// WriteChromeTrace renders the recorded window as Trace Event JSON. Each
// instruction contributes up to three complete ("X") slices — time in
// fetch (fetched→decoded), in decode (decoded→renamed) and in the back
// end (renamed→retired) — tagged with its sequence number, class, and
// wrong-path/coupled/squashed flags. Squashed instructions keep whatever
// slices they earned before dying.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.CloseSquashed()
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: metadataEvents()}
	events := t.Events()
	for i := range events {
		e := &events[i]
		name := fmt.Sprintf("%v %v", e.Class, e.PC)
		args := map[string]any{
			"seq":     e.Seq,
			"fetchID": e.FetchID,
		}
		if e.WrongPath {
			args["wrongPath"] = true
		}
		if e.Coupled {
			args["coupled"] = true
		}
		if e.Squashed {
			args["squashed"] = true
		}
		slice := func(tid int, start, end uint64) {
			if start == 0 || end < start {
				return
			}
			dur := end - start
			if dur == 0 {
				dur = 1
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Cat: category(e), Ph: "X",
				TS: start, Dur: dur, PID: 0, TID: tid, Args: args,
			})
		}
		slice(tidFetch, e.Fetched, e.Decoded)
		slice(tidDecode, e.Decoded, e.Renamed)
		slice(tidBackend, e.Renamed, e.Retired)
		if e.Squashed {
			// An instant mark where the record ends, so squash points
			// stand out on the timeline.
			ts := lastMark(e)
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "squash " + name, Cat: "squash", Ph: "i",
				TS: ts, PID: 0, TID: tidForSquash(e), Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// category tags slices for Perfetto's filter box.
func category(e *TraceEvent) string {
	switch {
	case e.WrongPath:
		return "wrong-path"
	case e.Coupled:
		return "coupled"
	default:
		return "decoupled"
	}
}

// lastMark returns the newest timestamp the event holds.
func lastMark(e *TraceEvent) uint64 {
	ts := e.Fetched
	if e.Decoded > ts {
		ts = e.Decoded
	}
	if e.Renamed > ts {
		ts = e.Renamed
	}
	return ts
}

// tidForSquash places the squash mark on the deepest stage reached.
func tidForSquash(e *TraceEvent) int {
	switch {
	case e.Renamed != 0:
		return tidBackend
	case e.Decoded != 0:
		return tidDecode
	default:
		return tidFetch
	}
}

// metadataEvents names the process and stage threads.
func metadataEvents() []chromeEvent {
	names := map[int]string{tidFetch: "fetch", tidDecode: "decode", tidBackend: "backend"}
	out := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 0, TID: 0,
		Args: map[string]any{"name": "elfetch pipeline"},
	}}
	for _, tid := range []int{tidFetch, tidDecode, tidBackend} {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"name": names[tid]},
		})
	}
	return out
}
