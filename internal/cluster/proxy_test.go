package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"tcrowd/api"
	"tcrowd/client"
	"tcrowd/internal/platform"
)

// TestClusterProxyErrorPassthrough pins the forwarding fix: a request
// proxied through a non-home edge must come back with the SAME status,
// typed error envelope, and backpressure headers the home node produced —
// byte for byte. A proxy that rewrote rate_limited into an opaque 502 (or
// dropped Retry-After) would break every SDK backoff loop behind it.
func TestClusterProxyErrorPassthrough(t *testing.T) {
	tc := startCluster(t, 2, false)
	set := tc.nodes[0].set
	edge, home := tc.nodes[0], tc.nodes[1]
	project := projectHomedOn(t, set, "n2")

	// A frozen clock makes the limiter's computed Retry-After identical on
	// every refused call, so proxied and direct responses must match
	// exactly.
	t0 := time.Now()
	home.local.SetRateLimiter(platform.NewRateLimiter(platform.RateLimiterConfig{
		Rate: 0.25, Burst: 1, Now: func() time.Time { return t0 },
	}))
	c := client.New(home.addr)
	if err := c.CreateProject(t.Context(), api.CreateProjectRequest{ID: project, Schema: clusterSchema(), Rows: 3}); err != nil {
		t.Fatal(err)
	}

	// Ghost project id also homed on n2, so the edge forwards rather than
	// serving its own 404.
	ghost := ""
	for i := 0; ; i++ {
		id := fmt.Sprintf("ghost-%d", i)
		if set.HomeOf(id).ID == "n2" {
			ghost = id
			break
		}
	}

	// Drain worker wr's single token so the next tasks request is refused.
	if _, err := c.Tasks(t.Context(), project, "wr", 1); err != nil {
		t.Fatal(err)
	}

	// Each case builds its request per call: the limiter charges tokens by
	// worker, so the proxied and direct calls must spend DIFFERENT workers
	// or the second call would 429 for the wrong reason. The worker never
	// appears in the envelope, so byte-equality still holds. (The
	// rate-limited case deliberately reuses wr — a refused request charges
	// nothing, so it repeats identically.)
	badBatch := func(worker string) []byte {
		b, _ := json.Marshal(api.SubmitAnswersRequest{Answers: []api.Answer{
			api.LabelAnswer(worker, 0, "category", "novel"), // not in the label set
		}})
		return b
	}
	cases := []struct {
		name       string
		method     string
		request    func(worker string) (path string, body []byte)
		workers    [2]string
		wantStatus int
		wantCode   string
		retryAfter bool
	}{
		{
			name:   "tasks rate-limited",
			method: http.MethodGet,
			request: func(w string) (string, []byte) {
				return "/v1/projects/" + project + "/tasks?worker=" + w + "&count=1", nil
			},
			workers:    [2]string{"wr", "wr"},
			wantStatus: http.StatusTooManyRequests,
			wantCode:   api.CodeRateLimited,
			retryAfter: true,
		},
		{
			name:   "tasks missing project",
			method: http.MethodGet,
			request: func(w string) (string, []byte) {
				return "/v1/projects/" + ghost + "/tasks?worker=" + w + "&count=1", nil
			},
			workers:    [2]string{"ga", "gb"},
			wantStatus: http.StatusNotFound,
			wantCode:   api.CodeNoProject,
		},
		{
			name:   "batch rejected",
			method: http.MethodPost,
			request: func(w string) (string, []byte) {
				return "/v1/projects/" + project + "/answers", badBatch(w)
			},
			workers:    [2]string{"ba", "bb"},
			wantStatus: http.StatusBadRequest,
			wantCode:   api.CodeBatchRejected,
		},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			pPath, pBody := tcase.request(tcase.workers[0])
			dPath, dBody := tcase.request(tcase.workers[1])
			proxied := doRaw(t, tcase.method, edge.addr+pPath, pBody)
			direct := doRaw(t, tcase.method, home.addr+dPath, dBody)

			if proxied.status != tcase.wantStatus || direct.status != tcase.wantStatus {
				t.Fatalf("status proxied=%d direct=%d, want %d (proxied body %s)",
					proxied.status, direct.status, tcase.wantStatus, proxied.body)
			}
			if !bytes.Equal(proxied.body, direct.body) {
				t.Fatalf("proxied envelope differs from home's:\nproxied: %s\ndirect:  %s", proxied.body, direct.body)
			}
			var env api.ErrorEnvelope
			if err := json.Unmarshal(proxied.body, &env); err != nil {
				t.Fatalf("proxied body is not an error envelope: %v: %s", err, proxied.body)
			}
			if env.Err.Code != tcase.wantCode {
				t.Fatalf("proxied code = %q, want %q", env.Err.Code, tcase.wantCode)
			}
			if tcase.wantCode == api.CodeBatchRejected && len(env.Err.Items) == 0 {
				t.Fatal("batch_rejected envelope lost its per-item errors in transit")
			}
			if got := proxied.header.Get("Content-Type"); got != direct.header.Get("Content-Type") {
				t.Fatalf("Content-Type rewritten in transit: %q", got)
			}
			if tcase.retryAfter {
				p, d := proxied.header.Get("Retry-After"), direct.header.Get("Retry-After")
				if p == "" || p != d {
					t.Fatalf("Retry-After proxied=%q direct=%q — must survive the hop unchanged", p, d)
				}
			}
		})
	}
}

type rawResponse struct {
	status int
	header http.Header
	body   []byte
}

func doRaw(t *testing.T, method, url string, body []byte) rawResponse {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawResponse{status: resp.StatusCode, header: resp.Header, body: b}
}
