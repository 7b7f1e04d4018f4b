package main

import (
	"flag"
	"io"
	"log/slog"
	"os"

	"repro/internal/obs"
)

// logFlags is the shared -log/-log-format registration: every psdf
// subcommand that logs accepts the same pair with the same defaults, help
// text and validation, so the flags cannot drift per command.
type logFlags struct {
	level  string
	format string
}

// addLogFlags registers -log and -log-format on fs. Bad values are
// rejected while fs parses, like any other malformed flag.
func addLogFlags(fs *flag.FlagSet) *logFlags {
	lf := &logFlags{level: "off", format: "text"}
	fs.Func("log", "structured log `level`: off, debug, info, warn or error (default off)", func(s string) error {
		_, err := obs.NewLogger(io.Discard, s, "text")
		lf.level = s
		return err
	})
	fs.Func("log-format", "structured log `format`: text or json (default text)", func(s string) error {
		_, err := obs.NewLogger(io.Discard, "info", s)
		lf.format = s
		return err
	})
	return lf
}

// logger builds the stderr logger the flags describe (nil when -log off).
func (lf *logFlags) logger() *slog.Logger {
	l, _ := obs.NewLogger(os.Stderr, lf.level, lf.format)
	return l
}
