package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkNewHealthz measures a service's set-up as perfbench
// serve-mixed times it: New with the default options, then GET /healthz
// answered.
func BenchmarkNewHealthz(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET /healthz: %d", rec.Code)
		}
		if err := s.Close(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
