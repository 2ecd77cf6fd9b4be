package obsrv

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

type queryStatus struct {
	ID          int64  `json:"id"`
	Label       string `json:"label"`
	ScannedRows int64  `json:"scanned_rows"`
}

func scalar(name, help string, v float64) Family {
	return Family{Name: name, Type: "counter", Help: help, Samples: []Sample{{Value: v}}}
}

func testFamilies() []Family {
	return []Family{
		scalar("spilly_queries_started_total", "Queries that began execution.", 2),
		scalar("spilly_engine_admission_wait_seconds", "Time queued.", 0.25),
		{Name: "spilly_device_written_bytes_total", Type: "counter", Help: "Bytes written to the device.",
			Samples: []Sample{
				{Labels: `array="spill",device="0"`, Value: 4096},
				{Labels: `array="spill",device="1"`, Value: 0},
				{Labels: `array="table",device="0"`, Value: 8192},
			}},
		{Name: "spilly_device_errors_total", Type: "counter", Help: "Fatal I/O errors attributed to a device."},
	}
}

func testServer() *Server {
	return &Server{
		Collect: testFamilies,
		Queries: func() any {
			return []queryStatus{{ID: 7, Label: "tpch-q9", ScannedRows: 123}}
		},
	}
}

func get(t *testing.T, s *Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: status = %d", path, rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsEndpoint: every family renders one HELP/TYPE header followed by
// all its samples — labelled, unlabelled, fractional — and a family with no
// samples still shows its header.
func TestMetricsEndpoint(t *testing.T) {
	body := get(t, testServer(), "/metrics")
	want := `# HELP spilly_queries_started_total Queries that began execution.
# TYPE spilly_queries_started_total counter
spilly_queries_started_total 2
# HELP spilly_engine_admission_wait_seconds Time queued.
# TYPE spilly_engine_admission_wait_seconds counter
spilly_engine_admission_wait_seconds 0.25
# HELP spilly_device_written_bytes_total Bytes written to the device.
# TYPE spilly_device_written_bytes_total counter
spilly_device_written_bytes_total{array="spill",device="0"} 4096
spilly_device_written_bytes_total{array="spill",device="1"} 0
spilly_device_written_bytes_total{array="table",device="0"} 8192
# HELP spilly_device_errors_total Fatal I/O errors attributed to a device.
# TYPE spilly_device_errors_total counter
`
	if body != want {
		t.Fatalf("/metrics =\n%s\nwant\n%s", body, want)
	}
}

// TestDuplicateFamilyRejected: the text format allows one TYPE line per
// name, so collecting a name twice must fail the scrape loudly, not render
// it twice.
func TestDuplicateFamilyRejected(t *testing.T) {
	s := &Server{Collect: func() []Family {
		return append(testFamilies(), scalar("spilly_queries_started_total", "again", 0))
	}}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 500 || !strings.Contains(rec.Body.String(), "spilly_queries_started_total") ||
		strings.Contains(rec.Body.String(), "# TYPE") {
		t.Fatalf("scrape with a duplicate family: status %d, body %q; want a 500 naming it and no document",
			rec.Code, rec.Body.String())
	}
}

func TestQueriesEndpoint(t *testing.T) {
	body := get(t, testServer(), "/queries")
	var snap struct {
		Queries []queryStatus `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(snap.Queries) != 1 || snap.Queries[0].Label != "tpch-q9" || snap.Queries[0].ScannedRows != 123 {
		t.Fatalf("snapshot = %+v", snap.Queries)
	}
}

// TestNilSources: a server with no sources must still serve empty documents
// rather than panic.
func TestNilSources(t *testing.T) {
	if body := get(t, &Server{}, "/metrics"); body != "" {
		t.Fatalf("/metrics with no families = %q", body)
	}
	var snap struct {
		Queries []queryStatus `json:"queries"`
	}
	body := get(t, &Server{}, "/queries")
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.Queries == nil {
		t.Fatalf("/queries with no source = %s (err %v), want an empty list", body, err)
	}
}
