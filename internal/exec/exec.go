// Package exec defines the row interface at the top of every physical
// plan: the planner (package plan) lowers a query to batch operators
// (package vexec) whose root is a vexec.RowSource, which is a Node.
package exec

import "perm/internal/types"

// Node is a volcano iterator. Next returns (nil, nil) at end of stream.
type Node interface {
	Open() error
	Next() (types.Row, error)
	Close() error
}

// Collect drains a node into a slice, handling Open/Close.
func Collect(n Node) ([]types.Row, error) {
	if err := n.Open(); err != nil {
		return nil, err
	}
	defer n.Close()
	var rows []types.Row
	for {
		r, err := n.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return rows, nil
		}
		rows = append(rows, r)
	}
}
