package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), so any standard
// scraper can poll the runtime mid-run. Every source of metrics — a
// registry snapshot, a profile history, an overhead report — renders its
// state as Families, and WritePrometheus is the one writer that turns
// families into text. A snapshot maps as:
//
//   - counters  → counter samples
//   - gauges    → a gauge sample plus a companion <name>_max gauge for the
//     high-water mark (Prometheus has no native max-tracking gauge)
//   - histograms → classic cumulative-bucket histograms: the registry
//     stores per-bucket counts, so buckets are accumulated here, with the
//     overflow bucket rendered as le="+Inf" and _sum/_count appended
//
// Metric names are sanitized to the Prometheus grammar (dots and every
// other illegal rune become underscores) as they are written.

// PromContentType is the Content-Type an HTTP handler should serve the
// exposition under.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Family is one metric family: its samples share the name and the type
// ("counter", "gauge" or "histogram").
type Family struct {
	Name    string
	Type    string
	Samples []Sample
}

// Sample is one line of a family. Suffix extends the family name (a
// histogram's "_bucket", "_sum" and "_count"). Label, when its name is
// set, is a label after the session label, such as {"le", "+Inf"}. Value
// is the rendered number.
type Sample struct {
	Suffix string
	Label  [2]string
	Value  string
}

// Scalar is a family of one unlabeled sample.
func Scalar(name, typ, value string) Family {
	return Family{Name: name, Type: typ, Samples: []Sample{{Value: value}}}
}

// Labeled is one source's families under the value of its session label.
// An empty Session renders unlabeled samples.
type Labeled struct {
	Session  string
	Families []Family
}

// promName sanitizes a registry metric name ("umi.traces.seen") into a
// Prometheus metric name ("umi_traces_seen").
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			r = '_'
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// labelEscaper escapes a label value per the exposition grammar.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelSet renders one sample's labels: the session label, if any, then
// the sample's own label, if any.
func labelSet(session string, label [2]string) string {
	var parts []string
	if session != "" {
		parts = append(parts, `session="`+labelEscaper.Replace(session)+`"`)
	}
	if label[0] != "" {
		parts = append(parts, label[0]+`="`+labelEscaper.Replace(label[1])+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus writes sets as one text exposition. The format forbids
// repeating a family, so a family that several sets carry is written
// once: its # TYPE line, then every set's samples in set order. Families
// appear in the order they are first seen, so fixed input renders
// byte-identically.
func WritePrometheus(w io.Writer, sets ...Labeled) {
	type member struct {
		session string
		fam     *Family
	}
	var order []string
	byName := make(map[string][]member)
	for _, set := range sets {
		for i := range set.Families {
			name := promName(set.Families[i].Name)
			if _, ok := byName[name]; !ok {
				order = append(order, name)
			}
			byName[name] = append(byName[name], member{set.Session, &set.Families[i]})
		}
	}
	for _, name := range order {
		members := byName[name]
		fmt.Fprintf(w, "# TYPE %s %s\n", name, members[0].fam.Type)
		for _, m := range members {
			for _, s := range m.fam.Samples {
				fmt.Fprintf(w, "%s%s%s %s\n", name, s.Suffix, labelSet(m.session, s.Label), s.Value)
			}
		}
	}
}

// Families renders the snapshot as exposition families: counters, then
// gauges (each followed by its _max companion), then histograms, each
// kind sorted by name.
func (s Snapshot) Families() []Family {
	var out []Family
	for _, n := range sortedKeys(s.Counters) {
		out = append(out, Scalar(n, "counter", strconv.FormatUint(s.Counters[n], 10)))
	}
	for _, n := range sortedKeys(s.Gauges) {
		g := s.Gauges[n]
		out = append(out, Scalar(n, "gauge", strconv.FormatInt(g.Value, 10)),
			Scalar(n+"_max", "gauge", strconv.FormatInt(g.Max, 10)))
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		f := Family{Name: n, Type: "histogram"}
		bucket := func(le string, count uint64) {
			f.Samples = append(f.Samples, Sample{Suffix: "_bucket", Label: [2]string{"le", le},
				Value: strconv.FormatUint(count, 10)})
		}
		cum := uint64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if b.Le != math.MaxUint64 {
				le = strconv.FormatUint(b.Le, 10)
			}
			bucket(le, cum)
		}
		if len(h.Buckets) == 0 {
			// An empty bucket list (a zero-valued HistogramValue, e.g. out
			// of Snapshot.Diff against a never-observed name) still needs
			// the +Inf bucket for the exposition to be a valid histogram.
			bucket("+Inf", h.Count)
		}
		f.Samples = append(f.Samples,
			Sample{Suffix: "_sum", Value: strconv.FormatUint(h.Sum, 10)},
			Sample{Suffix: "_count", Value: strconv.FormatUint(h.Count, 10)})
		out = append(out, f)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
