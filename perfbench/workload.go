package main

import (
	"fmt"
	"strings"

	"perm/internal/synth"
	"perm/internal/tpch"
)

// The benchmark database: TPC-H at a small scale factor, generated from
// a fixed data seed so that run-to-run differences come from the
// statement streams (which --seed drives), not from a different
// database.
const (
	scaleFactor = 0.002
	dataSeed    = 42
)

// stmt is one generated statement.
type stmt struct {
	text  string
	write bool
	// twin is the normal (non-provenance) form of a SELECT PROVENANCE
	// statement, checked against it with the §III-E theorem; "" when
	// the statement is not a provenance query.
	twin string
}

// workload is one named traffic mix.
type workload struct {
	// served drives the statements through a loopback server with
	// permclient connections instead of calling the Database directly.
	served bool
	// ddl runs once on a fresh database after the TPC-H load (Q15's
	// view), and again on the benchmark's own replay catalog.
	ddl []string
	// warm is the warm-up pass of set-up.
	warm []stmt
	// stream returns client c's statement generator. Streams depend only
	// on the seed and the client number.
	stream func(c int) func() stmt
}

var workloadNames = []string{"fig10-tpch", "adhoc-prov", "served-rw"}

// dataInfo is what the generators need to know about the database.
type dataInfo struct {
	maxPart, maxSupp, maxCust int
	orderKeys                 []int64
}

func infoOf(d *tpch.Dataset) dataInfo {
	info := dataInfo{
		maxPart: len(d.Tables["part"]),
		maxSupp: len(d.Tables["supplier"]),
		maxCust: len(d.Tables["customer"]),
	}
	for _, r := range d.Tables["orders"] {
		info.orderKeys = append(info.orderKeys, r[0].I)
	}
	return info
}

func newWorkload(name string, seed uint64, info dataInfo) (*workload, error) {
	switch name {
	case "fig10-tpch":
		return fig10Workload(seed), nil
	case "adhoc-prov":
		return adhocWorkload(seed, info), nil
	case "served-rw":
		return servedWorkload(seed, info), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// provOf returns the SELECT PROVENANCE form of a query and its twin.
func provOf(text string) stmt {
	return stmt{text: tpch.Query{Text: text}.Provenance().Text, twin: text}
}

// fig10VersionSeed fixes the qgen versions of fig10-tpch. The cost of a
// version varies by up to two orders of magnitude (Q11 with provenance
// returns 0 or 25,600 rows depending on its nation, Q15 9k to 17k), so
// versions drawn from the run seed made throughput differ by about 30%
// between seeds. The run seed orders each pass instead.
const fig10VersionSeed = 42

// fig10Workload is every supported TPC-H query in normal and PROVENANCE
// form (Fig. 10): one fixed qgen version per query, repeated every pass
// in an order drawn from the seed.
func fig10Workload(seed uint64) *workload {
	r := tpch.NewRand(fig10VersionSeed)
	w := &workload{}
	for _, n := range tpch.SupportedQueries() {
		q := tpch.MustQGen(n, r)
		w.ddl = append(w.ddl, q.Setup...)
		w.warm = append(w.warm, stmt{text: q.Text}, provOf(q.Text))
	}
	w.stream = func(c int) func() stmt {
		cr := tpch.NewRand(seed*7919 + 100 + uint64(c))
		pass := append([]stmt(nil), w.warm...)
		i := len(pass)
		return func() stmt {
			if i == len(pass) {
				for j := len(pass) - 1; j > 0; j-- {
					k := cr.Intn(j + 1)
					pass[j], pass[k] = pass[k], pass[j]
				}
				i = 0
			}
			i++
			return pass[i-1]
		}
	}
	return w
}

// adhocWorkload streams SELECT PROVENANCE statements in the synthetic
// shapes of §V-B with literals drawn fresh from the seed, so nearly
// every text is new to the compiled-query cache.
func adhocWorkload(seed uint64, info dataInfo) *workload {
	w := &workload{}
	// The warm-up stream uses a seed no client stream uses.
	warm := adhocGen(tpch.NewRand(seed*7919+2), info)
	for i := 0; i < 40; i++ {
		w.warm = append(w.warm, warm())
	}
	w.stream = func(c int) func() stmt {
		return adhocGen(tpch.NewRand(seed*7919+100+uint64(c)), info)
	}
	return w
}

// adhocGen cycles through the four synthetic shapes: set-operation trees
// (Fig. 12), SPJ trees (Fig. 13), aggregation chains (Fig. 14) and
// supplier selections (Fig. 15), each with a size drawn per statement.
func adhocGen(r *tpch.Rand, info dataInfo) func() stmt {
	i := 0
	return func() stmt {
		i++
		switch i % 4 {
		case 0:
			// A set-operation tree is wrapped so PROVENANCE applies to the
			// whole tree rather than to its first branch.
			tree := synth.SetOpQuery(r, r.Range(2, 5), info.maxPart)
			return provOf("SELECT p_partkey, p_name, p_brand FROM (" + tree + ") AS so")
		case 1:
			return provOf(synth.SPJQuery(r, r.Range(2, 6), info.maxPart))
		case 2:
			// AggChainQuery has no literal of its own; a key bound on the
			// innermost scan makes each text new.
			chain := synth.AggChainQuery(r.Range(2, 6), info.maxPart)
			chain = strings.Replace(chain, "FROM part GROUP BY",
				fmt.Sprintf("FROM part WHERE p_partkey <= %d GROUP BY", r.Range(info.maxPart/2, info.maxPart)), 1)
			return provOf(chain)
		default:
			return provOf(synth.SupplierSelection(r, info.maxSupp))
		}
	}
}

// Served-rw statement pool sizes: 48 + 40 + 24 = 112 distinct read
// texts, well under the default 256-entry compiled-query cache.
const (
	servedLookups    = 48
	servedRanges     = 40
	servedAggregates = 24
	// servedWritePct is the share of statements that are writes.
	servedWritePct = 5
	// ownedKeyBase starts the orders keys the benchmark inserts and
	// deletes; generated keys stay far below it.
	ownedKeyBase = 1_000_000_000
)

// servedWorkload mixes short provenance reads from a small literal pool
// with INSERT/DELETE pairs on benchmark-owned orders keys. The owned
// rows carry o_custkey -1, which no customer has, so no read ever sees
// them: read results stay fixed while every write still moves the
// catalog version and the orders snapshot.
func servedWorkload(seed uint64, info dataInfo) *workload {
	r := tpch.NewRand(seed*7919 + 3)
	w := &workload{served: true}
	for i := 0; i < servedLookups; i++ {
		k := info.orderKeys[r.Intn(len(info.orderKeys))]
		w.warm = append(w.warm, provOf(fmt.Sprintf(
			"SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = %d", k)))
	}
	for i := 0; i < servedRanges; i++ {
		w.warm = append(w.warm, provOf(synth.SupplierSelection(r, info.maxSupp)))
	}
	for i := 0; i < servedAggregates; i++ {
		lo := r.Range(1, info.maxCust)
		w.warm = append(w.warm, provOf(fmt.Sprintf(
			"SELECT c_mktsegment, count(*) AS n, sum(o_totalprice) AS total FROM customer, orders "+
				"WHERE c_custkey = o_custkey AND c_custkey >= %d AND c_custkey <= %d GROUP BY c_mktsegment",
			lo, lo+r.Range(5, 15))))
	}
	pool := w.warm
	w.stream = func(c int) func() stmt {
		cr := tpch.NewRand(seed*7919 + 200 + uint64(c))
		next := int64(ownedKeyBase) + int64(c)*10_000_000
		inserted := false
		return func() stmt {
			if cr.Intn(100) >= servedWritePct {
				return pool[cr.Intn(len(pool))]
			}
			// Writes alternate INSERT and DELETE of this client's own
			// key, so the table size stays steady and each write
			// affects exactly one row.
			if inserted {
				inserted = false
				k := next
				next++
				return stmt{write: true, text: fmt.Sprintf("DELETE FROM orders WHERE o_orderkey = %d", k)}
			}
			inserted = true
			return stmt{write: true, text: insertOwned(next)}
		}
	}
	return w
}

func insertOwned(key int64) string {
	return fmt.Sprintf("INSERT INTO orders VALUES (%d, -1, 'O', 100.0, date '1998-01-01', "+
		"'5-LOW', 'Clerk#000000000', 0, 'perfbench')", key)
}
