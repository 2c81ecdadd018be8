// Command tierbase-cli is an interactive client for tierbase-server
// (or any RESP server). Commands are read from stdin, one per line.
//
// Usage:
//
//	tierbase-cli -addr 127.0.0.1:6380
//	> SET greeting hello
//	OK
//	> GET greeting
//	"hello"
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tierbase/internal/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6380", "server address")
	flag.Parse()

	c, err := client.Dial(*addr)
	if err != nil {
		log.Fatalf("tierbase-cli: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		log.Fatalf("tierbase-cli: ping: %v", err)
	}
	fmt.Printf("connected to %s\n", *addr)

	// Non-interactive mode: command from argv.
	if args := flag.Args(); len(args) > 0 {
		v, err := c.Do(args...)
		printCommandReply(args, v, err)
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			fmt.Print("> ")
			continue
		}
		if strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			return
		}
		args := tokenize(line)
		v, err := c.Do(args...)
		printCommandReply(args, v, err)
		fmt.Print("> ")
	}
}

// tokenize splits a command line, honoring double quotes. A quote opens a
// token even when nothing sits between it and its close, so `SET k ""`
// sends an empty value.
func tokenize(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote, quoted := false, false
	flush := func() {
		if cur.Len() > 0 || quoted {
			out = append(out, cur.String())
			cur.Reset()
			quoted = false
		}
	}
	for i := 0; i < len(line); i++ {
		switch ch := line[i]; {
		case ch == '"':
			inQuote = !inQuote
			quoted = true
		case ch == ' ' && !inQuote:
			flush()
		default:
			cur.WriteByte(ch)
		}
	}
	flush()
	return out
}

func printCommandReply(args []string, v interface{}, err error) {
	switch {
	case err == client.Nil:
		fmt.Println("(nil)")
	case err != nil:
		fmt.Printf("(error) %v\n", err)
	case len(args) > 0 && strings.EqualFold(args[0], "INFO"):
		// INFO's bulk reply is a CRLF-separated report: print the lines
		// raw instead of one quoted blob full of \r\n escapes. Keyed on
		// the command, not on reply content — a GET value that happens to
		// contain CRLF bytes must still print as one quoted string.
		if s, ok := v.(string); ok {
			for _, line := range strings.Split(strings.TrimRight(s, "\r\n"), "\r\n") {
				fmt.Println(line)
			}
			return
		}
		printValue(v, "")
	default:
		printValue(v, "")
	}
}

func printValue(v interface{}, indent string) {
	switch x := v.(type) {
	case string:
		fmt.Printf("%s%q\n", indent, x)
	case int64:
		fmt.Printf("%s(integer) %d\n", indent, x)
	case []interface{}:
		if len(x) == 0 {
			fmt.Printf("%s(empty array)\n", indent)
			return
		}
		for i, el := range x {
			fmt.Printf("%s%d) ", indent, i+1)
			if el == nil {
				fmt.Println("(nil)")
			} else {
				printValue(el, "")
			}
		}
	default:
		fmt.Printf("%s%v\n", indent, x)
	}
}
