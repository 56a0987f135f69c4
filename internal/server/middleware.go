package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"fpga3d/internal/obs"
)

// requestInfo is the per-request record the instrument middleware
// shares with the handlers: the middleware fills the endpoint, handlers
// fill what they learn (strategy, cache outcome), and the middleware
// reads everything back for the access-log line.
type requestInfo struct {
	endpoint string
	strategy string
	cache    string // "hit", "miss", "bypass", or "" when no lookup ran
}

// requestInfoKey is the context key for the requestInfo record.
type requestInfoKey struct{}

// infoFromContext returns the request's info record, or nil outside the
// instrument middleware (direct handler tests).
func infoFromContext(ctx context.Context) *requestInfo {
	ri, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return ri
}

// statusRecorder captures the response status for metrics and logs. It
// forwards Flush so SSE streaming keeps working through the middleware
// chain.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer, keeping the progress SSE
// endpoint streamable behind the middleware.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// endpointName maps a request path to the label used in per-endpoint
// metric names and log lines.
func endpointName(path string) string {
	switch {
	case path == "/v1/solve":
		return "solve"
	case path == "/v1/minimize-time":
		return "minimize_time"
	case path == "/v1/minimize-chip":
		return "minimize_chip"
	case path == "/v1/solve-batch":
		return "solve_batch"
	case path == "/v1/jobs" || strings.HasPrefix(path, "/v1/jobs/"):
		return "jobs"
	case strings.HasPrefix(path, "/v1/progress/"):
		return "progress"
	case path == "/v1/sessions" || strings.HasPrefix(path, "/v1/sessions/"):
		return "sessions"
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	}
	return "other"
}

// maxRequestIDLen bounds a client-supplied X-Request-Id.
const maxRequestIDLen = 64

// sanitizeRequestID accepts a client-supplied request ID when it is
// short and plain (letters, digits, '.', '_', '-'); anything else is
// discarded so log lines and SSE paths stay unambiguous.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for _, r := range id {
		ok := r == '.' || r == '_' || r == '-' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return ""
		}
	}
	return id
}

// instrument is the outermost middleware: it assigns the request ID
// (honoring a well-formed client X-Request-Id, so clients can subscribe
// to /v1/progress/{id} while their solve is in flight), echoes it back
// as a header, opens the request span, records per-endpoint latency in
// a histogram, and emits one structured access-log line per request. It
// wraps recoverPanics, so a panicking handler still gets its 500
// logged.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)

		info := &requestInfo{endpoint: endpointName(r.URL.Path)}
		ctx := context.WithValue(obs.ContextWithRequestID(r.Context(), id), requestInfoKey{}, info)
		ctx, span := obs.StartSpan(ctx, s.tracer, "request")
		if span != nil {
			span.SetAttr("method", r.Method)
			span.SetAttr("endpoint", info.endpoint)
		}

		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(ctx))

		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.reg.Histogram(obs.MetricRequestLatency + "." + info.endpoint).Observe(elapsed.Seconds())
		if span != nil {
			span.SetAttr("status", status)
			span.End()
		}
		if s.log != nil {
			attrs := []slog.Attr{
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("endpoint", info.endpoint),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Float64("elapsed_ms", float64(elapsed)/float64(time.Millisecond)),
			}
			if info.strategy != "" {
				attrs = append(attrs, slog.String("strategy", info.strategy))
			}
			if info.cache != "" {
				attrs = append(attrs, slog.String("cache", info.cache))
			}
			s.log.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
		}
	})
}

// recoverPanics sits just inside instrument: a panicking handler must
// cost one request, not the daemon. The panic is logged with its stack
// and counted under server.errors, and the client gets a 500 if no
// body was started.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.reg.Counter(obs.MetricSolveErrors).Inc()
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				s.writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// errInternal fails a job or batch entry whose solve panicked.
var errInternal = errors.New("internal error")

// solveRecovered runs t on a goroutine the server started itself, where
// no handler and so no recoverPanics sits above it. It recovers the
// same way: the panic is counted under server.errors and logged with
// its stack, and only this solve fails, with errInternal. what names
// the solve in the log line.
func (s *Server) solveRecovered(ctx context.Context, t *solveTask, what string) (resp *solveResponse, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.reg.Counter(obs.MetricSolveErrors).Inc()
			s.logf("panic in %s: %v\n%s", what, p, debug.Stack())
			resp, err = nil, errInternal
		}
	}()
	return s.solveOwn(ctx, t)
}
