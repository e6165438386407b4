package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"perm/internal/types"
)

// wideResponse is shaped like a served provenance aggregate: 20 columns
// (a few result columns, then every attribute of the contributing
// customer and orders tuples) over 100 rows.
func wideResponse() *Response {
	r := &Response{OK: true}
	for c := 0; c < 20; c++ {
		r.Columns = append(r.Columns, fmt.Sprintf("prov_col_%d", c))
		r.Prov = append(r.Prov, c >= 3)
	}
	for i := 0; i < 100; i++ {
		row := make([]types.Value, 0, 20)
		for c := 0; c < 20; c++ {
			switch c % 5 {
			case 0:
				row = append(row, types.NewInt(int64(i*7919+c)))
			case 1:
				row = append(row, types.NewString(fmt.Sprintf("Customer#%09d", i)))
			case 2:
				row = append(row, types.NewFloat(float64(i*1009+c)/100))
			case 3:
				row = append(row, types.NewDate(int64(8000+i)))
			default:
				row = append(row, types.NewString("carefully final deposits detect slyly agai"))
			}
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

func BenchmarkEncodeResponse(b *testing.B) {
	r := wideResponse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	frame, err := Encode(wideResponse())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadResponse(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}

// The encoding/json baselines the codec replaced, for comparison.

func BenchmarkEncodeResponseJSON(b *testing.B) {
	r := wideResponse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResponseJSON(b *testing.B) {
	frame, err := Encode(wideResponse())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r Response
		if err := json.Unmarshal(frame[4:], &r); err != nil {
			b.Fatal(err)
		}
	}
}
