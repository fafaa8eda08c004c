// Package promtext writes the Prometheus text exposition format without
// any client-library dependency: the format is three line shapes (# HELP,
// # TYPE, sample), which is not worth a module for — and the repo's
// no-new-dependencies stance settles it. Every /metrics page in the repo
// renders through Writer, so this is the one place that knows the format.
package promtext

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the media type of a text exposition page.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer accumulates one exposition page.
type Writer struct {
	b strings.Builder
}

// Metric emits the HELP/TYPE preamble of one metric family.
func (p *Writer) Metric(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one unlabelled sample.
func (p *Writer) Sample(name string, v float64) {
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(formatValue(v))
	p.b.WriteByte('\n')
}

// labelEscaper escapes the three characters the format reserves in label
// values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labelled emits one sample with a single label. The value is written
// verbatim between double quotes, with only the three reserved
// characters escaped, so any UTF-8 text (tabs included) round-trips.
func (p *Writer) Labelled(name, label, value string, v float64) {
	fmt.Fprintf(&p.b, "%s{%s=\"%s\"} %s\n", name, label, labelEscaper.Replace(value), formatValue(v))
}

// Serve writes the page as a 200 response.
func (p *Writer) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, p.b.String())
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
