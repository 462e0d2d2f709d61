package platform

import (
	"net/http"

	"tcrowd/api"
)

// routeDef is one row of the server's route registration table. NewServer
// registers exactly this table and nothing else, and cmd/tcrowd-apiroutes
// renders it into docs/api-routes.txt — the CI docs job diffs the two, so
// the documented API surface cannot drift from the mux.
type routeDef struct {
	method  string
	pattern string
	handler func(*Server, http.ResponseWriter, *http.Request)
}

// routeTable is the full wire surface: the versioned /v1 API and nothing
// else (the pre-v1 unversioned aliases and the /snapshot alias of
// /estimates, each deprecated one release before, are gone — they now
// 404).
var routeTable = []routeDef{
	{"POST", "/v1/projects", (*Server).createProject},
	{"GET", "/v1/projects", (*Server).listProjects},
	{"DELETE", "/v1/projects/{id}", (*Server).deleteProject},
	{"GET", "/v1/projects/{id}/tasks", (*Server).tasks},
	{"POST", "/v1/projects/{id}/answers", (*Server).submitV1},
	{"GET", "/v1/projects/{id}/estimates", (*Server).estimates},
	{"GET", "/v1/projects/{id}/watch", (*Server).watch},
	{"GET", "/v1/projects/{id}/stats", (*Server).stats},
	{"GET", "/v1/projects/{id}/workers", (*Server).workers},
	{"GET", "/v1/stats", (*Server).shardStats},
}

// Route is one row of the public route listing, exposed for the API-drift
// check (cmd/tcrowd-apiroutes) and documentation tooling.
type Route struct {
	Method  string
	Pattern string
}

// Routes returns the server's full route table in registration order.
func Routes() []Route {
	out := make([]Route, len(routeTable))
	for i, r := range routeTable {
		out[i] = Route{Method: r.method, Pattern: r.pattern}
	}
	return out
}

// WatchEventType is one row of the public watch-event listing: the SSE
// `event:` names GET /v1/projects/{id}/watch may emit, exposed for the
// API-drift check and documentation tooling (long-poll responses carry
// the same payloads as plain JSON bodies).
type WatchEventType struct {
	Event   string
	Payload string
	Doc     string
}

// WatchEventTypes returns the watch stream's event-type table.
func WatchEventTypes() []WatchEventType {
	return []WatchEventType{
		{
			Event:   api.WatchEventGeneration,
			Payload: "api.WatchEvent",
			Doc:     "one event per published snapshot generation; cells lists moved cells (capped at 64, cells_overflow marks truncation); coalesced=true marks dropped intermediate bumps",
		},
	}
}

// registerRoutes installs the route table on the server's mux.
func (s *Server) registerRoutes() {
	for _, r := range routeTable {
		h := r.handler
		s.mux.HandleFunc(r.method+" "+r.pattern, func(w http.ResponseWriter, req *http.Request) {
			h(s, w, req)
		})
	}
}
