package obs

import (
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Prometheus text exposition format 0.0.4, implemented directly so the
// repository stays dependency-free. An Exposition is built afresh for
// every scrape from the counters the service already keeps: each
// family is declared with its name, help and type, and filled with one
// sample per label set, so no value is mirrored into a second store.

// ExpositionContentType is the Content-Type of GET /metrics.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefBuckets is the default latency histogram layout (seconds),
// matching the conventional Prometheus client defaults.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Exposition is one scrape's metric families. WriteTo renders families
// sorted by name and each family's series sorted by label key, so two
// scrapes of identical state are byte-identical.
type Exposition struct {
	families []*Family
}

// Family is one metric family of an Exposition. A family declared with
// no samples still prints its HELP and TYPE lines.
type Family struct {
	name, help, typ string
	series          []series
}

// series is one labeled sample: a value, or a histogram snapshot.
type series struct {
	labels string // rendered `k="v",...` ("" for no labels)
	value  float64
	hist   histSnapshot
}

// Family declares a family of type typ ("counter", "gauge" or
// "histogram").
func (e *Exposition) Family(name, help, typ string) *Family {
	f := &Family{name: name, help: help, typ: typ}
	e.families = append(e.families, f)
	return f
}

// Counter adds an unlabeled counter family with one sample.
func (e *Exposition) Counter(name, help string, v float64) {
	e.Family(name, help, "counter").Add(v)
}

// Gauge adds an unlabeled gauge family with one sample.
func (e *Exposition) Gauge(name, help string, v float64) {
	e.Family(name, help, "gauge").Add(v)
}

// Add adds one sample; labels alternate names and values.
func (f *Family) Add(v float64, labels ...string) {
	f.series = append(f.series, series{labels: renderLabels(labels), value: v})
}

// AddHistogram adds a snapshot of h as one histogram series; labels
// alternate names and values.
func (f *Family) AddHistogram(h *Histogram, labels ...string) {
	f.series = append(f.series, series{labels: renderLabels(labels), hist: h.snapshot()})
}

// renderLabels renders name/value pairs as `k="v",...`, with values
// escaped per the exposition format (backslash, double quote, newline).
func renderLabels(pairs []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Histogram observes a distribution into cumulative buckets. It is the
// one metric state obs keeps itself: a distribution has no snapshot to
// read it from.
type Histogram struct {
	mu   sync.Mutex
	snap histSnapshot
}

// histSnapshot is a histogram's state: per-bucket counts (the last
// slot is +Inf), their sum of observations and their count.
type histSnapshot struct {
	buckets []float64
	counts  []uint64
	sum     float64
	count   uint64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds; the +Inf bucket is implicit.
func NewHistogram(buckets []float64) *Histogram {
	return &Histogram{snap: histSnapshot{buckets: buckets, counts: make([]uint64, len(buckets)+1)}}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i, _ := slices.BinarySearch(h.snap.buckets, v) // first bound >= v
	h.mu.Lock()
	h.snap.counts[i]++
	h.snap.sum += v
	h.snap.count++
	h.mu.Unlock()
}

func (h *Histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.snap
	s.counts = slices.Clone(s.counts)
	return s
}

// WriteTo renders the exposition in the text format.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	fams := slices.Clone(e.families)
	slices.SortFunc(fams, func(a, b *Family) int { return strings.Compare(a.name, b.name) })
	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
		b.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		slices.SortFunc(f.series, func(x, y series) int { return strings.Compare(x.labels, y.labels) })
		for _, s := range f.series {
			if f.typ == "histogram" {
				writeHistogram(&b, f.name, s)
			} else {
				writeSample(&b, f.name, "", s.labels, s.value)
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeHistogram renders one histogram series: cumulative buckets
// (with the implicit +Inf), then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s series) {
	cum := uint64(0)
	for i, ub := range s.hist.buckets {
		cum += s.hist.counts[i]
		writeSample(b, name+"_bucket", `le="`+formatFloat(ub)+`"`, s.labels, float64(cum))
	}
	writeSample(b, name+"_bucket", `le="+Inf"`, s.labels, float64(s.hist.count))
	writeSample(b, name+"_sum", "", s.labels, s.hist.sum)
	writeSample(b, name+"_count", "", s.labels, float64(s.hist.count))
}

// writeSample renders one sample line, merging an extra label pair
// (the histogram "le") with the series labels.
func writeSample(b *strings.Builder, name, extra, labels string, v float64) {
	b.WriteString(name)
	if labels != "" && extra != "" {
		labels += ","
	}
	if labels += extra; labels != "" {
		b.WriteString("{" + labels + "}")
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value: shortest round-trip form, with
// the exposition spellings for infinities.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves GET /metrics: each scrape builds a fresh Exposition
// through fill and writes it.
func Handler(fill func(*Exposition)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var e Exposition
		fill(&e)
		w.Header().Set("Content-Type", ExpositionContentType)
		_, _ = e.WriteTo(w)
	})
}
