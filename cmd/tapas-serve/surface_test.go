package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSurfaceTableMatchesFlags: docs/api-v1.md's Surface table and
// `tapas-serve -h` name the same flags with the same defaults. A cell
// reads `x` (the default, compared as the flag's type parses it, so
// `2m` matches 2m0s), off/none/required (an empty, zero or false
// default) or — (no such flag); the tapas-gateway package holds the
// same test over its own column.
func TestSurfaceTableMatchesFlags(t *testing.T) {
	var help bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &help, nil); code != 0 {
		t.Fatalf("-h exited %d:\n%s", code, help.String())
	}
	checkSurfaceTable(t, help.String(), 2)
}

// checkSurfaceTable compares the flags a -h listing prints with the
// flag rows of the Surface table, reading the daemon's defaults from
// cell col of each row (1: the flag, 2: tapas-serve, 3: tapas-gateway).
func checkSurfaceTable(t *testing.T, help string, col int) {
	t.Helper()
	type flagDoc struct{ typ, def string }
	flags := map[string]*flagDoc{}
	var last *flagDoc
	head := regexp.MustCompile(`^  -(\S+)(?: (\S+))?$`)
	def := regexp.MustCompile(`\(default (.*)\)$`)
	for _, line := range strings.Split(help, "\n") {
		if m := head.FindStringSubmatch(line); m != nil {
			last = &flagDoc{typ: m[2]}
			flags[m[1]] = last
		} else if m := def.FindStringSubmatch(line); m != nil && last != nil {
			last.def = m[1]
			if s, err := strconv.Unquote(m[1]); err == nil {
				last.def = s
			}
		}
	}
	if len(flags) == 0 {
		t.Fatalf("no flags in the -h listing:\n%s", help)
	}

	md, err := os.ReadFile("../../docs/api-v1.md")
	if err != nil {
		t.Fatal(err)
	}
	// An unprinted default is the zero value of the flag's type.
	zero := map[string]string{"int": "0", "float": "0", "duration": "0s", "": "false"}
	tick := regexp.MustCompile("^`([^`]*)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(md), "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(line, "|")
		name := strings.Trim(strings.TrimSpace(cells[1]), "`-")
		cell := strings.TrimSpace(cells[col])
		f, ok := flags[name]
		documented[name] = true
		if cell == "—" {
			if ok {
				t.Errorf("-%s: the table says the daemon has no such flag, -h lists one", name)
			}
			continue
		}
		if !ok {
			t.Errorf("-%s: documented with %q, but -h lists no such flag", name, cell)
			continue
		}
		got := f.def
		if got == "" {
			got = zero[f.typ]
		}
		switch m := tick.FindStringSubmatch(cell); {
		case m != nil:
			if !sameDefault(f.typ, m[1], got) {
				t.Errorf("-%s: documented default %q, flag default %q", name, m[1], got)
			}
		case strings.HasPrefix(cell, "off"), strings.HasPrefix(cell, "none"), strings.HasPrefix(cell, "required"):
			if f.def != "" {
				t.Errorf("-%s: documented as %q, but the flag defaults to %q", name, cell, f.def)
			}
		default:
			t.Errorf("-%s: unreadable default cell %q", name, cell)
		}
	}
	for name := range flags {
		if !documented[name] {
			t.Errorf("-%s: listed by -h, missing from the Surface table", name)
		}
	}
}

// sameDefault compares a documented default with a flag's as values of
// the flag's type.
func sameDefault(typ, doc, flag string) bool {
	switch typ {
	case "duration":
		a, errA := time.ParseDuration(doc)
		b, errB := time.ParseDuration(flag)
		return errA == nil && errB == nil && a == b
	case "int", "float":
		a, errA := strconv.ParseFloat(doc, 64)
		b, errB := strconv.ParseFloat(flag, 64)
		return errA == nil && errB == nil && a == b
	}
	return doc == flag
}
