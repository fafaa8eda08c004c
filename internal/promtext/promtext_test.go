package promtext

import (
	"net/http/httptest"
	"testing"
)

// TestWriterLineShapes pins the exact bytes of each line shape: the
// serve and coordinator pages are built from nothing else, and scrapers
// and the benchmark read them by exact name and label.
func TestWriterLineShapes(t *testing.T) {
	var p Writer
	p.Metric("x_total", "counter", "Things counted.")
	p.Sample("x_total", 42)
	p.Sample("x_ratio", 0.25)
	p.Sample("x_big", 12345678)
	p.Labelled("x_by", "office", "a", 3)
	p.Labelled("x_by", "office", `q"b\s`, 1)
	const want = "# HELP x_total Things counted.\n# TYPE x_total counter\n" +
		"x_total 42\n" +
		"x_ratio 0.25\n" +
		"x_big 1.2345678e+07\n" +
		"x_by{office=\"a\"} 3\n" +
		`x_by{office="q\"b\\s"} 1` + "\n"
	rr := httptest.NewRecorder()
	p.Serve(rr)
	if rr.Code != 200 || rr.Header().Get("Content-Type") != ContentType {
		t.Fatalf("Serve: status %d, content type %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	if got := rr.Body.String(); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
}
