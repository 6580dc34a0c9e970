package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE pair per family,
// then one line per series. Histograms render cumulative le buckets with
// integer nanosecond bounds plus _sum and _count; the clamp bucket folds
// into +Inf (its nominal bound understates clamped observations).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, fam := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, s := range fam.series {
			switch {
			case s.counterFn != nil:
				writeLine(bw, fam.name, s.labels, "", "", strconv.FormatUint(s.counterFn(), 10))
			case s.gaugeFn != nil:
				writeLine(bw, fam.name, s.labels, "", "", formatFloat(s.gaugeFn()))
			case s.hist != nil:
				writeHistogram(bw, fam.name, s.labels, s.hist.Snapshot())
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, name string, labels []Label, snap HistogramSnapshot) {
	var cum uint64
	for i, c := range snap.Counts[:NumBuckets-1] {
		cum += c
		if c == 0 && i > 0 && snap.Counts[i-1] == 0 {
			// Empty run: only emit a bucket line when its cumulative count
			// changed or it closes a populated region, keeping scrapes
			// compact. The preceding populated bucket and +Inf pin the
			// cumulative series, so omitted lines lose no information.
			continue
		}
		writeLine(w, name+"_bucket", labels, "le", strconv.FormatUint(BucketUpper(i), 10), strconv.FormatUint(cum, 10))
	}
	cum += snap.Counts[NumBuckets-1]
	writeLine(w, name+"_bucket", labels, "le", "+Inf", strconv.FormatUint(cum, 10))
	writeLine(w, name+"_sum", labels, "", "", strconv.FormatUint(snap.Sum, 10))
	writeLine(w, name+"_count", labels, "", "", strconv.FormatUint(cum, 10))
}

// writeLine emits one sample line, appending an optional extra label
// (the histogram le) after the series labels.
func writeLine(w io.Writer, name string, labels []Label, extraKey, extraVal, value string) {
	io.WriteString(w, name)
	if len(labels) > 0 || extraKey != "" {
		io.WriteString(w, "{")
		for i, l := range labels {
			if i > 0 {
				io.WriteString(w, ",")
			}
			// %q escapes \, " and newlines — exactly the label-value escapes
			// the exposition format requires.
			fmt.Fprintf(w, "%s=%q", l.Key, l.Value)
		}
		if extraKey != "" {
			if len(labels) > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", extraKey, extraVal)
		}
		io.WriteString(w, "}")
	}
	io.WriteString(w, " ")
	io.WriteString(w, value)
	io.WriteString(w, "\n")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", "\\\\")
	return strings.ReplaceAll(h, "\n", "\\n")
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
