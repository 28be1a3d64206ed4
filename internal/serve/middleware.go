package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"bsmp"
)

// ErrorBody is the structured error payload every non-2xx response
// carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure class and, for parameter rejections, the
// typed ParamError so clients can point at the offending field.
type ErrorDetail struct {
	// Kind is one of "param", "body", "method", "not_found",
	// "queue_full", "deadline", "draining", "internal".
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Param carries the validation boundary's typed rejection.
	Param *bsmp.ParamError `json:"param,omitempty"`
}

// writeJSON writes v with the given status; encoding failures fall back
// to a plain 500 (the payloads here are all marshalable by construction).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encoding response: %v", err)
	}
}

// writeError writes a structured error payload.
func writeError(w http.ResponseWriter, status int, kind, msg string, pe *bsmp.ParamError) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Kind: kind, Message: msg, Param: pe}})
}

// withRecover is the defense-in-depth boundary behind ValidateParams: if
// a handler panics anyway, the panic is logged and converted to a
// structured 500 instead of unwinding the whole daemon. The HTTP server
// would confine the panic to the one connection regardless, but a typed
// payload plus a counter beats a silently dropped connection.
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.ctr.add(ctrPanicsRecovered)
				log.Printf("serve: recovered panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				// Best effort: if the handler already wrote a partial
				// body this write is a no-op on the status line.
				writeError(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal error: %v", rec), nil)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// reqIDKeyType keys the per-request ID in the request context.
type reqIDKeyType struct{}

// RequestIDFrom returns the request ID the middleware assigned, or "".
// The ID flows through the handler's context into the pool job, so run
// lifecycle log lines correlate with the access line (coalesced
// requests log the executing request's ID).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKeyType{}).(string)
	return id
}

// withCounters maintains the request-level counters, assigns
// each request an ID (echoed in the X-Request-Id header and threaded
// through the context), and emits one structured access-log line per
// request.
func (s *Server) withCounters(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ctr.add(ctrRequests)
		id := fmt.Sprintf("%s-%d", s.bootID, s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKeyType{}, id))
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		status := cw.status()
		switch {
		case status >= 500:
			s.ctr.add(ctrResponses5xx)
		case status >= 400:
			s.ctr.add(ctrResponses4xx)
		default:
			s.ctr.add(ctrResponses2xx)
		}
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"bytes", cw.bytes,
			"dur_ms", float64(time.Since(start).Nanoseconds())/1e6,
			"remote", r.RemoteAddr)
	})
}

// countingWriter records the response status and body size for the
// counters and the access log.
type countingWriter struct {
	http.ResponseWriter
	wrote bool
	code  int
	bytes int64
}

func (c *countingWriter) WriteHeader(code int) {
	if !c.wrote {
		c.wrote = true
		c.code = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if !c.wrote {
		c.wrote = true
		c.code = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(b)
	c.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so streaming handlers (the
// /v1/sweep NDJSON rows) can flush through the counting middleware.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) status() int {
	if !c.wrote {
		return http.StatusOK
	}
	return c.code
}
