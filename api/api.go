// Package api defines the versioned (/v1) wire contract of tcrowd-server:
// request and response bodies, the typed error envelope, and the stable
// machine-readable error codes. It depends only on the standard library so
// that clients (package client, external SDKs) can share the exact types
// the server serializes.
//
// Every error response has the shape
//
//	{"error": {"code": "...", "message": "...", "retryable": true|false}}
//
// where code is one of the Code* constants below — clients dispatch on the
// code, never on the human-readable message. The full (HTTP status, code,
// retryable) table is committed at docs/api-routes.txt and drift-checked
// in CI.
package api

import "fmt"

// Stable machine-readable error codes. Codes are append-only: a published
// code never changes meaning or disappears within /v1.
const (
	// CodeBadRequest covers malformed bodies, unknown columns/labels,
	// out-of-range rows, mistyped values and unparseable query parameters.
	CodeBadRequest = "bad_request"
	// CodeNoProject: the {id} path element names no registered project.
	CodeNoProject = "no_project"
	// CodeNoSnapshot: a generation-pinned read before the project's first
	// refresh has published estimates (or naming a generation newer than
	// anything published). Retryable — a snapshot appears once a refresh
	// completes.
	CodeNoSnapshot = "no_snapshot"
	// CodeGenerationGone: the ?generation= (or cursor-pinned) model state
	// was evicted from the server's retained-generation ring. Not
	// retryable as issued — restart the read from the latest generation.
	CodeGenerationGone = "generation_gone"
	// CodeDuplicateProject: POST /v1/projects with an id already in use.
	CodeDuplicateProject = "duplicate_project"
	// CodeAlreadyAnswered: this worker already answered this cell.
	CodeAlreadyAnswered = "already_answered"
	// CodeShardSaturated: the project's inference shard queue is full.
	// Retryable — back off per the Retry-After header. For answer
	// submission this code never surfaces on /v1 (answers are recorded
	// and only the refresh is shed; see SubmitAnswersResponse.Refresh).
	CodeShardSaturated = "shard_saturated"
	// CodeShuttingDown: the server is draining for shutdown. Retryable
	// against a restarted or different replica.
	CodeShuttingDown = "shutting_down"
	// CodeBatchRejected: a batch POST .../answers failed validation and
	// nothing was recorded; Error.Items pinpoints the offending rows.
	CodeBatchRejected = "batch_rejected"
	// CodeInternal: a server-side fault (e.g. a panicking inference job)
	// — not a request mistake. Not retryable: the same request will very
	// likely hit the same fault.
	CodeInternal = "internal"
	// CodeDurabilityFailure: the server could not persist the mutation to
	// its write-ahead log, so NOTHING was recorded — acknowledgement
	// means durable. Retryable: the fault may be transient and the log
	// self-heals torn appends.
	CodeDurabilityFailure = "durability_failure"
	// CodeWorkerBanned: the submitting worker was auto-banned by the
	// project's reputation engine. Not retryable — bans are sticky, and
	// resubmitting the same answers under the same worker id will keep
	// failing. In a batch rejection each offending answer's item carries
	// this code.
	CodeWorkerBanned = "worker_banned"
	// CodeRateLimited: the per-worker token-bucket rate limit was
	// exceeded. Retryable — back off per the Retry-After header (the SDK
	// does this automatically).
	CodeRateLimited = "rate_limited"
	// CodeNotHome: in a multi-node cluster, this node is not the
	// addressed project's home and will not accept the request (writes
	// always land on the home node). Error.Home carries the home node's
	// base URL; the SDK re-issues the request against it automatically.
	// Not retryable AS ISSUED — the identical request to the same node
	// keeps failing; the retry must go to Home.
	CodeNotHome = "not_home"
	// CodeReplicaStale: a generation-pinned read addressed a replica
	// that has not received the requested generation yet. Retryable —
	// replication delivers it shortly (or read the home node).
	CodeReplicaStale = "replica_stale"
)

// Error is the typed error payload carried by every non-2xx response.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail. Not machine-stable.
	Message string `json:"message"`
	// Retryable reports whether an identical request may succeed later
	// without modification.
	Retryable bool `json:"retryable"`
	// Items carries per-answer failures for CodeBatchRejected.
	Items []ItemError `json:"items,omitempty"`
	// Home is the base URL of the project's home node, set on
	// CodeNotHome responses so clients re-issue the request there.
	Home string `json:"home,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// ItemError locates one invalid answer inside a rejected batch.
type ItemError struct {
	// Index is the answer's position in the submitted answers array.
	Index int `json:"index"`
	// Code is the item's own error code (e.g. CodeAlreadyAnswered).
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every non-2xx response.
type ErrorEnvelope struct {
	Err Error `json:"error"`
}

// Column describes one attribute in a project schema.
type Column struct {
	Name string `json:"name"`
	// Type is "categorical" or "continuous".
	Type string `json:"type"`
	// Labels is the answer domain of a categorical column.
	Labels []string `json:"labels,omitempty"`
	// Min and Max bound a continuous column's domain (advisory).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// Schema is the table structure a requester registers.
type Schema struct {
	// Key names the entity attribute; key values identify rows and are
	// not crowdsourced.
	Key     string   `json:"key"`
	Columns []Column `json:"columns"`
}

// CreateProjectRequest is the body of POST /v1/projects.
type CreateProjectRequest struct {
	ID     string `json:"id"`
	Schema Schema `json:"schema"`
	Rows   int    `json:"rows"`
	// TCrowdAssignment enables the structure-aware assignment engine;
	// default is fewest-answers-first.
	TCrowdAssignment bool `json:"tcrowd_assignment,omitempty"`
	// RefreshEvery bounds submissions between inference refreshes
	// (0 = server default 25, 1 = refresh per answer).
	RefreshEvery int `json:"refresh_every,omitempty"`
	// FsyncPolicy overrides the server-wide WAL fsync policy for this
	// project: "always" (fsync per accepted batch — hot campaigns whose
	// answers are paid work), "interval" (background cadence) or "never"
	// (OS page cache only — bulk-import scratch projects). Empty means
	// the server default. Rejected with 400 on any other value; ignored
	// when the server runs without durability.
	FsyncPolicy string `json:"fsync_policy,omitempty"`
	// Reputation enables the online worker-reputation engine: per-worker
	// trust scores from agreement/work-time/model-quality signals, with
	// graduated responses (down-weighting, assignment quarantine, and an
	// auto-ban rejecting further answers with CodeWorkerBanned).
	Reputation bool `json:"reputation,omitempty"`
}

// CreateProjectResponse is the 201 body of POST /v1/projects.
type CreateProjectResponse struct {
	ID string `json:"id"`
}

// Task is one assigned cell: everything needed to render the question.
type Task struct {
	Row    int      `json:"row"`
	Entity string   `json:"entity"`
	Column string   `json:"column"`
	Type   string   `json:"type"`
	Labels []string `json:"labels,omitempty"`
}

// Answer is one worker answer. Exactly one of Label or Number must be set
// (Label for categorical columns, Number for continuous ones).
type Answer struct {
	Worker string   `json:"worker"`
	Row    int      `json:"row"`
	Column string   `json:"column"`
	Label  *string  `json:"label,omitempty"`
	Number *float64 `json:"number,omitempty"`
	// WorkTimeMs is the client-reported time the worker spent on the task
	// in milliseconds (0 = not reported). Negative values are rejected
	// with 400. Feeds the reputation engine's response-time signal when
	// the project runs with reputation enabled.
	WorkTimeMs int64 `json:"work_time_ms,omitempty"`
	// Client optionally identifies the submitting client software
	// (free-form, e.g. "webform/2.1"); recorded for diagnostics only.
	Client string `json:"client,omitempty"`
}

// LabelAnswer builds a categorical Answer.
func LabelAnswer(worker string, row int, column, label string) Answer {
	return Answer{Worker: worker, Row: row, Column: column, Label: &label}
}

// NumberAnswer builds a continuous Answer.
func NumberAnswer(worker string, row int, column string, number float64) Answer {
	return Answer{Worker: worker, Row: row, Column: column, Number: &number}
}

// SubmitAnswersRequest is the body of POST /v1/projects/{id}/answers.
// Either the single-answer fields (Worker/Row/Column/Label/Number) or the
// Answers batch must be set, not both. A batch is validated in full before
// anything is recorded: on any invalid row the whole batch is rejected
// (CodeBatchRejected, per-item detail) and nothing is recorded.
type SubmitAnswersRequest struct {
	Answer
	Answers []Answer `json:"answers,omitempty"`
}

// Refresh states reported by SubmitAnswersResponse.Refresh.
const (
	// RefreshEnqueued: an inference refresh was enqueued (or coalesced
	// into one already queued) on the project's shard.
	RefreshEnqueued = "enqueued"
	// RefreshNone: the submission is mid-cadence; no refresh was due.
	RefreshNone = "none"
	// RefreshDeferred: the shard queue was saturated, so the due refresh
	// was shed. The answers ARE recorded; published snapshots lag until
	// the next refresh lands. Treat as a backpressure hint.
	RefreshDeferred = "deferred"
	// RefreshShutdown: the server is draining; answers are recorded and
	// will be persisted, but no refresh will run.
	RefreshShutdown = "shutdown"
)

// SubmitAnswersResponse is the 201 body of POST /v1/projects/{id}/answers.
// Unlike the legacy route, /v1 never answers 429 for submissions: recorded
// answers are acknowledged 201 and shard backpressure surfaces as
// Refresh == RefreshDeferred (plus a Retry-After header).
type SubmitAnswersResponse struct {
	Status string `json:"status"`
	// Recorded is the number of answers appended to the log.
	Recorded int `json:"recorded"`
	// Refresh is one of the Refresh* states above.
	Refresh string `json:"refresh"`
}

// Estimate is one inferred cell value.
type Estimate struct {
	Entity string   `json:"entity"`
	Column string   `json:"column"`
	Label  *string  `json:"label,omitempty"`
	Number *float64 `json:"number,omitempty"`
}

// GenerationFresh is a ?min_generation= value guaranteed to exceed every
// published generation: it always triggers one refresh-if-stale round
// through the project's shard, so the response reflects every answer
// recorded before the call — the strongly consistent read spelled in
// generation terms.
const GenerationFresh = 1<<31 - 1

// EstimatesResponse is the body of GET /v1/projects/{id}/estimates (and
// its deprecated /snapshot alias). Every response is pinned to one published model
// generation: Generation identifies it, the ETag response header quotes
// it, and with ?cursor=&limit= the estimates list is one page of the
// row-major cell walk over that immutable snapshot — NextCursor re-encodes
// the generation, so the whole paged walk is generation-coherent however
// many writes land mid-walk.
type EstimatesResponse struct {
	Estimates []Estimate `json:"estimates"`
	// WorkerQuality maps each worker to its unified quality. It rides only
	// on the first page of a walk (a request without ?cursor=): it is the
	// same for every page of the pinned generation, so cursor pages omit
	// the key, and client.AllEstimates keeps the first page's map.
	WorkerQuality map[string]float64 `json:"worker_quality,omitempty"`
	Iterations    int                `json:"iterations"`
	Converged     bool               `json:"converged"`
	// Generation is the published model state this response serves
	// (monotonically increasing per project; 1 is the first publish).
	Generation int `json:"generation"`
	// AnswersSeen is the log length the estimates reflect; Fresh reports
	// whether that equals the current log length (pinned reads may lag).
	AnswersSeen int  `json:"answers_seen"`
	Fresh       bool `json:"fresh"`
	// NextCursor, when non-empty, is the ?cursor= value of the next page
	// ("<generation>:<ordinal>" — the pinned generation rides along).
	NextCursor string `json:"next_cursor,omitempty"`
}

// WatchEventGeneration is the SSE `event:` name of a generation-bump
// event on GET /v1/projects/{id}/watch; its `data:` payload is one
// WatchEvent. Long-poll responses carry the same WatchEvent as a plain
// JSON body.
const WatchEventGeneration = "generation"

// MaxChangedCells caps WatchEvent.Cells: a publish that moves more cells
// than this ships the first MaxChangedCells (row-major) with
// CellsOverflow set, and the consumer re-fetches instead of patching.
const MaxChangedCells = 64

// ChangedCell addresses one estimate cell whose value moved in a publish.
type ChangedCell struct {
	Row    int    `json:"row"`
	Entity string `json:"entity"`
	Column string `json:"column"`
}

// WatchEvent is one generation bump published by a project, delivered by
// GET /v1/projects/{id}/watch (long-poll JSON body or SSE data payload).
type WatchEvent struct {
	Project string `json:"project"`
	// Generation is the newly published model state.
	Generation int `json:"generation"`
	// AnswersSeen is the log length the new state reflects; AnswersDelta
	// is how many answers this publish absorbed over the previous one.
	AnswersSeen  int `json:"answers_seen"`
	AnswersDelta int `json:"answers_delta"`
	// ChangedCells counts estimate cells whose value moved in this
	// publish.
	ChangedCells int  `json:"changed_cells"`
	Workers      int  `json:"workers"`
	Converged    bool `json:"converged"`
	// Cells lists the moved cells (row-major, at most MaxChangedCells) so
	// consumers can patch incrementally; when CellsOverflow is true the
	// list is truncated and a re-fetch of the estimates is cheaper than
	// patching.
	Cells         []ChangedCell `json:"cells,omitempty"`
	CellsOverflow bool          `json:"cells_overflow,omitempty"`
	// Coalesced marks the delivery that follows a gap: at least one
	// generation between the consumer's previous event (or its ?after=)
	// and this one was skipped — a slow consumer's buffer dropped bumps,
	// or the consumer connected behind the latest state. AnswersDelta/
	// ChangedCells cover only this event's own publish, not everything
	// missed.
	Coalesced bool `json:"coalesced,omitempty"`
}

// StatsResponse is the body of GET /v1/projects/{id}/stats.
type StatsResponse struct {
	Rows           int     `json:"rows"`
	Columns        int     `json:"columns"`
	Cells          int     `json:"cells"`
	Answers        int     `json:"answers"`
	Workers        int     `json:"workers"`
	AnswersPerTask float64 `json:"answers_per_task"`
}

// WorkerReputation is one worker's reputation record in GET
// /v1/projects/{id}/workers.
type WorkerReputation struct {
	Worker string `json:"worker"`
	// State is the graduated-response state: "active", "watched",
	// "quarantined" or "banned".
	State string `json:"state"`
	// Score is the current suspicion score in [0,1] (higher = worse).
	Score float64 `json:"score"`
	// Seen counts every observed answer; Judged counts the ones that had
	// enough peer context to be scored.
	Seen   int `json:"seen"`
	Judged int `json:"judged"`
	// Weight is the multiplier the inference E-step applies to this
	// worker's answers (1 = full trust, 0 = excluded).
	Weight float64 `json:"weight"`
	// ModelQ is the model's posterior quality q_u for the worker from the
	// last refresh (0 when the model has not seen the worker yet).
	ModelQ float64 `json:"model_q,omitempty"`
}

// WorkersResponse is the body of GET /v1/projects/{id}/workers.
type WorkersResponse struct {
	// Defense reports whether the project runs the reputation engine; when
	// false Workers is empty.
	Defense bool               `json:"defense"`
	Workers []WorkerReputation `json:"workers"`
}

// ShardMetrics is one inference shard's counters in GET /v1/stats.
type ShardMetrics struct {
	Shard     int    `json:"shard"`
	Depth     int    `json:"depth"`
	Enqueued  uint64 `json:"enqueued"`
	Coalesced uint64 `json:"coalesced"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	BusyNs    int64  `json:"busy_ns"`
	LastJobNs int64  `json:"last_job_ns"`
}

// ShardTotals aggregates the per-shard counters.
type ShardTotals struct {
	Depth     int     `json:"depth"`
	Enqueued  uint64  `json:"enqueued"`
	Coalesced uint64  `json:"coalesced"`
	Rejected  uint64  `json:"rejected"`
	Completed uint64  `json:"completed"`
	Failed    uint64  `json:"failed"`
	BusyNs    int64   `json:"busy_ns"`
	AvgJobMs  float64 `json:"avg_job_ms"`
}

// ShardStatsResponse is the body of GET /v1/stats.
type ShardStatsResponse struct {
	Workers int            `json:"workers"`
	Shards  []ShardMetrics `json:"shards"`
	Totals  ShardTotals    `json:"totals"`
}
