package main

import (
	"slices"
	"testing"
)

func TestTokenize(t *testing.T) {
	for _, tc := range []struct {
		line string
		want []string
	}{
		{`SET k ""`, []string{"SET", "k", ""}},
		{`SET k "hello world"`, []string{"SET", "k", "hello world"}},
		{`SET  k   v`, []string{"SET", "k", "v"}},
		{`GET k   `, []string{"GET", "k"}},
		{`MSET a "" b ""`, []string{"MSET", "a", "", "b", ""}},
		{`SET k"v" w`, []string{"SET", "kv", "w"}},
	} {
		if got := tokenize(tc.line); !slices.Equal(got, tc.want) {
			t.Errorf("tokenize(%q) = %q, want %q", tc.line, got, tc.want)
		}
	}
}
