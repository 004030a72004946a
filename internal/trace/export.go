package trace

import "repro/internal/jsonl"

// ExporterOptions configures an Exporter: RingSize (default 4096 here),
// Writer and Sync, as jsonl.SinkOptions documents them. The live engines
// leave Sync off to keep JSON encoding off the pipeline hot path; their
// Dropped count is the spans the full writer queue turned away.
type ExporterOptions = jsonl.SinkOptions

// Exporter receives finished spans: always into the ring that Recent
// reads, and, with a Writer, as JSONL.
type Exporter = jsonl.Sink[SpanRecord]

// NewExporter builds an exporter.
func NewExporter(opts ExporterOptions) *Exporter {
	if opts.RingSize <= 0 {
		opts.RingSize = 4096
	}
	return jsonl.NewSink[SpanRecord](opts)
}
