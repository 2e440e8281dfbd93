package obs

import (
	"fmt"
	"io"
	"strings"
)

// writeHeader renders a family's HELP and TYPE lines, HELP first. Every
// family — histogram, counter or gauge — gets its header here, so this is
// the one place the exposition format's header is spelled.
func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeLabel appends one quoted name="value" pair to a label set.
func writeLabel(b *strings.Builder, name, value string) {
	if b.Len() > 0 {
		b.WriteByte(',')
	}
	fmt.Fprintf(b, "%s=%q", name, value)
}

// Emitter renders counter and gauge samples at scrape time. A collector
// (see CollectorFunc) reads its numbers and calls Counter or Gauge once per
// sample; the family header is written before a family's first sample, so
// samples of one family that differ only in labels are emitted back to back.
type Emitter struct {
	w      io.Writer
	family string // the family whose header was written last
}

// Number is a sample value. Integers render as %d and floats as %g; the
// types are exact so no Stringer can change the rendering.
type Number interface {
	int | int64 | uint64 | float64
}

// Counter emits one sample of a monotonically increasing family. labels are
// name, value pairs, quoted by the emitter.
func Counter[T Number](e *Emitter, name, help string, v T, labels ...string) {
	e.sample(name, help, "counter", v, labels)
}

// Gauge emits one sample of a family that can go up and down.
func Gauge[T Number](e *Emitter, name, help string, v T, labels ...string) {
	e.sample(name, help, "gauge", v, labels)
}

func (e *Emitter) sample(name, help, typ string, v any, labels []string) {
	if name != e.family {
		writeHeader(e.w, name, help, typ)
		e.family = name
	}
	if len(labels) == 0 {
		fmt.Fprintf(e.w, "%s %v\n", name, v)
		return
	}
	var set strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		writeLabel(&set, labels[i], labels[i+1])
	}
	fmt.Fprintf(e.w, "%s{%s} %v\n", name, set.String(), v)
}

// CollectorFunc adapts a function that emits counter and gauge families to a
// Collector. Each scrape hands it a fresh Emitter.
type CollectorFunc func(e *Emitter)

// WritePrometheus implements Collector.
func (f CollectorFunc) WritePrometheus(w io.Writer) { f(&Emitter{w: w}) }
