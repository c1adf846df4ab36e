package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"logan"
)

// serving prints the generated blocks of docs/SERVING.md, markers
// included, in document order: the flag table from the logan-serve -h
// text on stdin, then the /jobs, /map/index and /map parameter tables
// from logan's rows. scripts/doc-lint.sh diffs this against the file.
func serving() int {
	help, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 2
	}
	for _, block := range []struct{ name, body string }{
		{"flags-logan-serve", flagTable(string(help))},
		{"params-jobs", paramTable(new(logan.OverlapConfig).Params())},
		{"params-index", paramTable(new(logan.IndexOptions).Params())},
		{"params-map", paramTable(new(logan.MapConfig).Params())},
	} {
		fmt.Printf("<!-- generated:%s -->\n%s<!-- /generated -->\n", block.name, block.body)
	}
	return 0
}

// paramTable is a table's Markdown with what only the server knows about
// its x row: an absent x is -x, and -max-x caps it below the row's own
// bound.
func paramTable(ps logan.Params) string {
	return strings.Replace(ps.Markdown(),
		"| `x` | int32 | `0` | `[0, 2147483647]` |",
		"| `x` | int32 | the server's `-x` | `[0, 2147483647]`, capped by `-max-x` |", 1)
}

var (
	helpFlag    = regexp.MustCompile(`^  -(\S+)`)
	helpDefault = regexp.MustCompile(`^(.*?)\s*\(default (.*)\)$`)
)

// flagTable renders package flag's -h text as a Markdown table: flag,
// default as -h prints it (none for a zero value), usage.
func flagTable(help string) string {
	var b strings.Builder
	b.WriteString("| Flag | Default | Meaning |\n| --- | --- | --- |\n")
	var name string
	sc := bufio.NewScanner(strings.NewReader(help))
	for sc.Scan() {
		line := sc.Text()
		if m := helpFlag.FindStringSubmatch(line); m != nil {
			name = m[1]
		} else if name != "" && strings.HasPrefix(line, "    \t") {
			usage, def := strings.TrimSpace(line), ""
			if m := helpDefault.FindStringSubmatch(usage); m != nil {
				usage, def = m[1], "`"+strings.Trim(m[2], `"`)+"`"
			}
			fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", name, def, strings.ReplaceAll(usage, "|", "\\|"))
			name = ""
		}
	}
	return b.String()
}
