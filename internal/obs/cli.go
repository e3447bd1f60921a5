package obs

import (
	"fmt"
	"os"

	"toposhot/internal/trace"
)

// CLI bundles the logging state every binary wires behind the shared
// -log-level, -log-format, and -log flags: a live logger on stderr plus an
// optional deterministic JSONL snapshot written when the run ends.
type CLI struct {
	// Logger is the process logger (nil when -log-level off).
	Logger *Logger
	// Path is the -log destination for the deterministic snapshot ("" = none).
	Path string
}

// OpenCLI builds the shared logging bundle from the flag values, installs the
// logger as the process default (constructors self-wire, like metrics and
// trace), and returns it. An unparseable level or format is reported on
// stderr and exits 2 — flag validation, not a runtime failure.
func OpenCLI(level, format, path string) *CLI {
	lg, err := NewCLI(level, format, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	Enable(lg)
	return &CLI{Logger: lg, Path: path}
}

// Close writes the deterministic event-log snapshot to Path, when one was
// requested, in trace's JSONL format. Call it on every exit path (Fatal
// does).
func (c *CLI) Close() error {
	if c == nil || c.Path == "" {
		return nil
	}
	f, err := os.Create(c.Path)
	if err != nil {
		return err
	}
	if err := c.Logger.Snapshot().WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fatal records msg at error level — rendered plainly on stderr when logging
// is off, so fatal errors are never silent — then writes the snapshot and
// exits with code. msg must be a compile-time constant (trace-spanname lint
// rule).
func (c *CLI) Fatal(code int, msg string, fields ...trace.Attr) {
	if c != nil && c.Logger != nil {
		c.Logger.Error(msg, fields...)
	} else {
		fmt.Fprintln(os.Stderr, FormatLine(msg, fields...))
	}
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}
