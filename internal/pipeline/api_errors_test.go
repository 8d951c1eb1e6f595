package pipeline

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestBadQueryParamsRejected: malformed query parameters are a client
// error (400), not a silent fallback to defaults.
func TestBadQueryParamsRejected(t *testing.T) {
	p := newTestPipeline(t)
	api := NewAPI(p)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/api/vessels?limit=abc", http.StatusBadRequest},
		{"/api/vessels?limit=-5", http.StatusBadRequest},
		{"/api/vessels?limit=0", http.StatusBadRequest},
		{"/api/events?limit=nope", http.StatusBadRequest},
		// Non-finite bbox components: NaN passes a min > max check.
		{"/api/vessels?bbox=NaN,0,1,1", http.StatusBadRequest},
		{"/api/vessels?bbox=-Inf,0,1,1", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&length=tall", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&draught=deep", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&type=big", http.StatusBadRequest},
		{"/api/route?to=Heraklion", http.StatusBadRequest}, // missing from
		// Out-of-range features: a ship type is one byte, and lengths
		// and draughts are finite and non-negative.
		{"/api/route?from=Piraeus&to=Heraklion&type=326", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&type=-1", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&type=70.9", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&length=NaN", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&length=-190", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&draught=Inf", http.StatusBadRequest},
		{"/api/route?from=Piraeus&to=Heraklion&draught=-0.5", http.StatusBadRequest},
		// Well-formed parameters still work.
		{"/api/vessels?limit=5", http.StatusOK},
		{"/api/events?limit=5", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		api.Handler().ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, rec.Code, tc.want)
		}
	}
}
