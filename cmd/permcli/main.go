// Command permcli is an interactive SQL shell for the Perm engine,
// including the SQL-PLE provenance extensions of the paper:
//
//	SELECT PROVENANCE ...;
//	EXPLAIN REWRITE SELECT PROVENANCE ...;   -- show the rewritten query q+
//	EXPLAIN SELECT ...;                      -- show the physical plan
//	EXPLAIN ANALYZE SELECT ...;              -- execute and show per-operator runtime stats
//
// plus the query-service dialect (PREPARE name AS ..., EXECUTE name,
// DEALLOCATE name, SET option = on|off).
//
// With -remote ADDR the shell connects to a permd server instead of
// embedding an engine; statements then execute in a server-side session.
//
// Meta commands: \d (list tables/views), \tpch SF (load TPC-H data),
// \i FILE (run a script), \q (quit).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"perm"
	"perm/internal/mem"
	"perm/internal/session"
	"perm/internal/tpch"
	"perm/permclient"
)

// runner executes one statement and returns its result (queries), rows
// affected (DML) or a completion tag (everything else).
type runner func(text string) (res *perm.Result, affected int, tag string, err error)

func main() {
	var (
		script   = flag.String("f", "", "execute a SQL script file and exit")
		remote   = flag.String("remote", "", "connect to a permd server at this address instead of embedding an engine")
		loadSF   = flag.Float64("tpch", 0, "preload TPC-H data at this scale factor")
		flatten  = flag.Bool("flatten-setops", false, "use the Fig. 6(3a) set-operation rewrite variant")
		noOpt    = flag.Bool("no-optimizer", false, "disable the logical optimizer (flattening/pruning of rewritten queries)")
		noCache  = flag.Bool("no-query-cache", false, "disable the shared compiled-query cache")
		memLimit = flag.String("memory-limit", "", "session memory budget, e.g. 64MiB (materializing operators spill to disk past it)")
		spillDir = flag.String("spill-dir", "", "directory for spill files (default $PERM_SPILL_DIR or the system temp dir)")
		paraN    = flag.Int("parallelism", 0, "intra-query worker count (0 = $PERM_PARALLELISM or all cores, 1 = serial)")
		traceN   = flag.Int("trace-sample", 0, "record a lifecycle trace for every Nth query into perm_traces (0 = $PERM_TRACE_SAMPLE or off, negative = off)")
		stmtTO   = flag.Duration("statement-timeout", 0, "cancel statements running longer than this (0 = $PERM_STATEMENT_TIMEOUT or none, negative = none)")
		timing   = flag.Bool("timing", true, "print execution times")
	)
	flag.Parse()

	var run runner
	var db *perm.Database // nil in remote mode
	if *remote != "" {
		if *loadSF > 0 {
			fmt.Fprintln(os.Stderr, "-tpch loads into an embedded engine; start permd with -tpch instead")
			os.Exit(1)
		}
		client, err := permclient.Dial(*remote)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer client.Close() //nolint:errcheck
		// Engine option flags apply to this connection's server-side
		// session, forwarded as SET statements.
		for opt, on := range map[string]bool{
			"flatten_setops":      *flatten,
			"disable_optimizer":   *noOpt,
			"disable_query_cache": *noCache,
		} {
			if on {
				if err := client.Set(opt, "on"); err != nil {
					fmt.Fprintf(os.Stderr, "SET %s: %v\n", opt, err)
					os.Exit(1)
				}
			}
		}
		if *memLimit != "" {
			if err := client.Set("memory_limit", *memLimit); err != nil {
				fmt.Fprintf(os.Stderr, "SET memory_limit: %v\n", err)
				os.Exit(1)
			}
		}
		if *paraN != 0 {
			if err := client.Set("parallelism", strconv.Itoa(*paraN)); err != nil {
				fmt.Fprintf(os.Stderr, "SET parallelism: %v\n", err)
				os.Exit(1)
			}
		}
		if *traceN != 0 {
			v := strconv.Itoa(*traceN)
			if *traceN < 0 {
				v = "off"
			}
			if err := client.Set("trace_sample", v); err != nil {
				fmt.Fprintf(os.Stderr, "SET trace_sample: %v\n", err)
				os.Exit(1)
			}
		}
		if *stmtTO != 0 {
			v := stmtTO.String()
			if *stmtTO < 0 {
				v = "off"
			}
			if err := client.Set("statement_timeout", v); err != nil {
				fmt.Fprintf(os.Stderr, "SET statement_timeout: %v\n", err)
				os.Exit(1)
			}
		}
		if *spillDir != "" {
			fmt.Fprintln(os.Stderr, "-spill-dir applies to the embedded engine; start permd with -spill-dir instead")
		}
		run = func(text string) (*perm.Result, int, string, error) {
			res, n, err := client.Exec(strings.TrimSuffix(strings.TrimSpace(text), ";"))
			return res, n, "OK", err
		}
	} else {
		limit := int64(0)
		if *memLimit != "" {
			n, err := mem.ParseSize(*memLimit)
			if err != nil {
				fmt.Fprintln(os.Stderr, "-memory-limit:", err)
				os.Exit(1)
			}
			limit = n
		}
		db = perm.NewDatabaseWithOptions(perm.Options{
			FlattenSetOps:     *flatten,
			DisableOptimizer:  *noOpt,
			DisableQueryCache: *noCache,
			MemoryLimit:       limit,
			SpillDir:          *spillDir,
			Parallelism:       *paraN,
			TraceSample:       *traceN,
			StatementTimeout:  *stmtTO,
		})
		if *loadSF > 0 {
			fmt.Fprintf(os.Stderr, "loading TPC-H at SF %g ...\n", *loadSF)
			tpch.MustLoad(db, *loadSF, 42)
		}
		sess := session.New(db)
		run = func(text string) (*perm.Result, int, string, error) {
			out, err := sess.Run(text)
			if err != nil {
				return nil, 0, "", err
			}
			return out.Result, out.Affected, out.Tag, nil
		}
	}

	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runStatement(run, string(data), *timing); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("perm shell — SELECT PROVENANCE computes Why-provenance; \\q quits")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "perm> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if done := metaCommand(db, run, trimmed, *timing); done {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "perm> "
			if err := runStatement(run, stmt, *timing); err != nil {
				fmt.Println("ERROR:", err)
			}
			continue
		}
		if buf.Len() > 0 {
			prompt = "   -> "
		}
	}
}

// metaCommand handles backslash commands; returns true to quit. db is
// nil in remote mode, where engine-side meta commands are unavailable.
func metaCommand(db *perm.Database, run runner, cmd string, timing bool) bool {
	switch {
	case cmd == "\\q":
		return true
	case cmd == "\\d":
		if db == nil {
			fmt.Println("\\d is not available in remote mode")
			return false
		}
		fmt.Println("Tables:")
		for _, t := range db.Tables() {
			n, _ := db.TableRowCount(t)
			fmt.Printf("  %s (%d rows)\n", t, n)
		}
		fmt.Println("Views:")
		for _, v := range db.Views() {
			fmt.Printf("  %s\n", v)
		}
	case strings.HasPrefix(cmd, "\\tpch"):
		if db == nil {
			fmt.Println("\\tpch is not available in remote mode (start permd with -tpch)")
			return false
		}
		arg := strings.TrimSpace(strings.TrimPrefix(cmd, "\\tpch"))
		sf, err := strconv.ParseFloat(arg, 64)
		if err != nil || sf <= 0 {
			fmt.Println("usage: \\tpch <scale factor>, e.g. \\tpch 0.01")
			return false
		}
		start := time.Now()
		if _, err := tpch.Load(db, sf, 42); err != nil {
			fmt.Println("ERROR:", err)
			return false
		}
		fmt.Printf("loaded in %.2fs\n", time.Since(start).Seconds())
	case strings.HasPrefix(cmd, "\\i"):
		file := strings.TrimSpace(strings.TrimPrefix(cmd, "\\i"))
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Println("ERROR:", err)
			return false
		}
		if err := runStatement(run, string(data), timing); err != nil {
			fmt.Println("ERROR:", err)
		}
	default:
		fmt.Println("meta commands: \\d  \\tpch SF  \\i FILE  \\q")
	}
	return false
}

// runStatement executes one or more statements, printing query results.
func runStatement(run runner, text string, timing bool) error {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" {
		return nil
	}
	start := time.Now()
	res, affected, tag, err := run(trimmed)
	if err != nil {
		return err
	}
	switch {
	case res != nil:
		fmt.Print(res)
		fmt.Printf("(%d rows", len(res.Rows))
		if n := res.NumProvColumns(); n > 0 {
			fmt.Printf(", %d provenance columns", n)
		}
		fmt.Print(")\n")
	case affected > 0:
		fmt.Printf("%d rows affected\n", affected)
	case tag != "" && tag != "OK":
		fmt.Println(tag)
	default:
		fmt.Println("ok")
	}
	if timing {
		fmt.Printf("time: %.4fs\n", time.Since(start).Seconds())
	}
	return nil
}
