// Command neograph-cli is an interactive shell for a neograph server or
// a replicated fleet. It speaks the public neograph/client SDK: every
// command runs under a deadline, and with -replicas the shell becomes a
// topology-aware pool session — reads route to replicas (read-your-writes
// preserved via the session's causality token), writes to the primary,
// and the shell follows a failover promotion automatically.
//
// Usage:
//
//	neograph-cli -addr 127.0.0.1:7475
//	neograph-cli -addr 127.0.0.1:7475 -replicas 127.0.0.1:7575,127.0.0.1:7675
//
// Commands (ids are decimal numbers; values are int, float, true/false or
// "quoted strings"):
//
//	begin [si|rc]              open a transaction (single-server mode)
//	commit | abort             finish it
//
// The SDK sends a transaction's writes with the next call that needs an
// answer; the shell flushes after every statement instead, so inside
// begin … commit a conflict is reported at the statement that caused it.
// It ends the transaction there; the SDK refuses the statements after it,
// rather than auto-committing them, until an abort or a new begin.
//
//	create [Label ...]         create a node
//	get <id>                   show a node
//	set <id> <key> <value>     set a node property
//	label <id> +Name | -Name   add/remove a label
//	del <id> | detach <id>     delete a node
//	rel <type> <from> <to>     create a relationship
//	rels <id> [out|in|both]    list relationships
//	nbrs <id> [out|in|both]    list neighbors
//	find <Label>               nodes by label
//	where <key> <value>        nodes by property
//	all                        all node ids
//	stats | gc | checkpoint    admin
//	status                     replication role and progress
//	promote [repl-addr]        promote a replica (single-server mode)
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"neograph"
	"neograph/client"
)

// shell routes commands to a single client session or a fleet pool.
type shell struct {
	cl      *client.Client // single-server mode (nil in pool mode)
	pool    *client.Pool   // fleet mode (nil in single mode)
	timeout time.Duration
}

// token is the shell's causality token: reads through the pool always
// observe the shell's own earlier writes, even from a lagging replica.
const token = "cli"

func (s *shell) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), s.timeout)
}

// read runs fn on a read session (a replica when pooled).
func (s *shell) read(fn func(ctx context.Context, c *client.Client) error) error {
	ctx, cancel := s.ctx()
	defer cancel()
	if s.pool != nil {
		return s.pool.Read(ctx, token, func(c *client.Client) error { return fn(ctx, c) })
	}
	return fn(ctx, s.cl)
}

// write runs fn on a primary session.
func (s *shell) write(fn func(ctx context.Context, c *client.Client) error) error {
	ctx, cancel := s.ctx()
	defer cancel()
	if s.pool != nil {
		return s.pool.Write(ctx, token, func(c *client.Client) error { return fn(ctx, c) })
	}
	return fn(ctx, s.cl)
}

// single runs fn on the dedicated session; some commands (transactions,
// promote) need one pinned server and are unavailable in pool mode.
func (s *shell) single(fn func(ctx context.Context, c *client.Client) error) error {
	if s.cl == nil {
		return fmt.Errorf("this command needs a single-server session (drop -replicas)")
	}
	ctx, cancel := s.ctx()
	defer cancel()
	return fn(ctx, s.cl)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7475", "primary server address")
	replicas := flag.String("replicas", "", "comma-separated replica addresses (enables pooled routing)")
	policy := flag.String("read-policy", "least-lag", "replica read routing: least-lag or round-robin")
	timeout := flag.Duration("timeout", 10*time.Second, "per-command deadline")
	flag.Parse()

	sh := &shell{timeout: *timeout}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	if *replicas != "" {
		var reps []string
		for _, r := range strings.Split(*replicas, ",") {
			if r = strings.TrimSpace(r); r != "" {
				reps = append(reps, r)
			}
		}
		var pol client.Policy
		switch *policy {
		case "least-lag":
			pol = client.LeastLag
		case "round-robin":
			pol = client.RoundRobin
		default:
			fmt.Fprintf(os.Stderr, "bad -read-policy %q (want least-lag or round-robin)\n", *policy)
			os.Exit(2)
		}
		router, err := client.OpenRouter(ctx, client.RouterConfig{
			Partitions: client.Group(*addr, reps...), Policy: pol,
		})
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "connect: %v\n", err)
			os.Exit(1)
		}
		defer router.Close()
		sh.pool = router.Pool(0)
		fmt.Printf("pooled fleet: primary %s + %d replica(s); type 'help' for commands\n",
			sh.pool.PrimaryAddr(), len(reps))
	} else {
		cl, err := client.Dial(ctx, *addr)
		if err == nil {
			err = cl.Ping(ctx)
		}
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "connect: %v\n", err)
			os.Exit(1)
		}
		defer cl.Close()
		sh.cl = cl
		fmt.Printf("connected to %s (proto v%d); type 'help' for commands\n", *addr, cl.ServerProto())
	}

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("neograph> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		err := run(sh, line)
		if err == nil && sh.cl != nil && sh.cl.InTx() {
			// Inside a transaction: send what the statement deferred, so its
			// failure is this statement's.
			err = sh.single(func(ctx context.Context, c *client.Client) error { return c.Flush(ctx) })
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

func run(sh *shell, line string) error {
	args := tokenize(line)
	switch args[0] {
	case "help":
		fmt.Println("begin [si|rc] | commit | abort | create [Label..] | get <id> | set <id> <k> <v>")
		fmt.Println("label <id> +L|-L | del <id> | detach <id> | rel <type> <from> <to> | rels <id> [dir]")
		fmt.Println("nbrs <id> [dir] | find <Label> | where <k> <v> | all | stats | gc | checkpoint")
		fmt.Println("status | promote [repl-addr] | quit")
		fmt.Println("inside begin … commit every statement is sent as it is entered: a conflict shows")
		fmt.Println("at the statement that caused it and ends the transaction; nothing runs until abort or begin")
		return nil
	case "begin":
		iso := "si"
		if len(args) > 1 {
			iso = args[1]
		}
		return sh.single(func(ctx context.Context, c *client.Client) error {
			return c.Begin(ctx, iso)
		})
	case "commit":
		return sh.single(func(ctx context.Context, c *client.Client) error {
			return c.Commit(ctx)
		})
	case "abort":
		return sh.single(func(ctx context.Context, c *client.Client) error {
			return c.Abort(ctx)
		})
	case "create":
		return sh.write(func(ctx context.Context, c *client.Client) error {
			id, err := c.CreateNode(ctx, args[1:], nil)
			if err != nil {
				return err
			}
			fmt.Printf("node %d\n", id)
			return nil
		})
	case "get":
		id, err := parseID(args, 1)
		if err != nil {
			return err
		}
		return sh.read(func(ctx context.Context, c *client.Client) error {
			n, err := c.GetNode(ctx, id)
			if err != nil {
				return err
			}
			fmt.Printf("node %d labels=%v props=%s\n", n.ID, n.Labels, n.Props)
			return nil
		})
	case "set":
		if len(args) < 4 {
			return fmt.Errorf("usage: set <id> <key> <value>")
		}
		id, err := parseID(args, 1)
		if err != nil {
			return err
		}
		return sh.write(func(ctx context.Context, c *client.Client) error {
			return c.SetNodeProp(ctx, id, args[2], parseValue(args[3]))
		})
	case "label":
		if len(args) < 3 || (args[2][0] != '+' && args[2][0] != '-') {
			return fmt.Errorf("usage: label <id> +Name|-Name")
		}
		id, err := parseID(args, 1)
		if err != nil {
			return err
		}
		return sh.write(func(ctx context.Context, c *client.Client) error {
			if args[2][0] == '+' {
				return c.AddLabel(ctx, id, args[2][1:])
			}
			return c.RemoveLabel(ctx, id, args[2][1:])
		})
	case "del":
		id, err := parseID(args, 1)
		if err != nil {
			return err
		}
		return sh.write(func(ctx context.Context, c *client.Client) error {
			return c.DeleteNode(ctx, id)
		})
	case "detach":
		id, err := parseID(args, 1)
		if err != nil {
			return err
		}
		return sh.write(func(ctx context.Context, c *client.Client) error {
			return c.DetachDeleteNode(ctx, id)
		})
	case "rel":
		if len(args) < 4 {
			return fmt.Errorf("usage: rel <type> <from> <to>")
		}
		from, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			return err
		}
		to, err := strconv.ParseUint(args[3], 10, 64)
		if err != nil {
			return err
		}
		return sh.write(func(ctx context.Context, c *client.Client) error {
			id, err := c.CreateRel(ctx, args[1], from, to, nil)
			if err != nil {
				return err
			}
			fmt.Printf("rel %d\n", id)
			return nil
		})
	case "rels":
		id, err := parseID(args, 1)
		if err != nil {
			return err
		}
		dir := "both"
		if len(args) > 2 {
			dir = args[2]
		}
		return sh.read(func(ctx context.Context, c *client.Client) error {
			rels, err := c.Relationships(ctx, id, dir)
			if err != nil {
				return err
			}
			for _, r := range rels {
				fmt.Printf("rel %d: (%d)-[:%s]->(%d) %s\n", r.ID, r.Start, r.Type, r.End, r.Props)
			}
			fmt.Printf("%d relationship(s)\n", len(rels))
			return nil
		})
	case "nbrs":
		id, err := parseID(args, 1)
		if err != nil {
			return err
		}
		dir := "both"
		if len(args) > 2 {
			dir = args[2]
		}
		return sh.read(func(ctx context.Context, c *client.Client) error {
			ids, err := c.Neighbors(ctx, id, dir)
			if err != nil {
				return err
			}
			fmt.Println(ids)
			return nil
		})
	case "find":
		if len(args) < 2 {
			return fmt.Errorf("usage: find <Label>")
		}
		return sh.read(func(ctx context.Context, c *client.Client) error {
			ids, err := c.NodesByLabel(ctx, args[1])
			if err != nil {
				return err
			}
			fmt.Println(ids)
			return nil
		})
	case "where":
		if len(args) < 3 {
			return fmt.Errorf("usage: where <key> <value>")
		}
		return sh.read(func(ctx context.Context, c *client.Client) error {
			ids, err := c.NodesByProperty(ctx, args[1], parseValue(args[2]))
			if err != nil {
				return err
			}
			fmt.Println(ids)
			return nil
		})
	case "all":
		return sh.read(func(ctx context.Context, c *client.Client) error {
			ids, err := c.AllNodes(ctx)
			if err != nil {
				return err
			}
			fmt.Println(ids)
			return nil
		})
	case "stats":
		return sh.read(func(ctx context.Context, c *client.Client) error {
			info, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			fmt.Println(string(info))
			return nil
		})
	case "status":
		// Diagnostics bypass routing and the read-your-writes gate: an
		// operator checking on a lagging replica must not be blocked BY
		// the lag. Pool mode reports every fleet member.
		if sh.pool != nil {
			ctx, cancel := sh.ctx()
			defer cancel()
			for _, hs := range sh.pool.FleetStatus(ctx) {
				if hs.Err != nil {
					fmt.Printf("%s: unreachable (%v)\n", hs.Addr, hs.Err)
					continue
				}
				st := hs.Status
				fmt.Printf("%s: role=%s durable=%d applied=%d epoch=%d\n",
					hs.Addr, st.Role, st.DurableLSN, st.AppliedLSN, st.Epoch)
			}
			return nil
		}
		return sh.single(func(ctx context.Context, c *client.Client) error {
			st, err := c.ReplStatus(ctx)
			if err != nil {
				return err
			}
			fmt.Printf("%s: role=%s durable=%d applied=%d epoch=%d\n",
				c.RemoteAddr(), st.Role, st.DurableLSN, st.AppliedLSN, st.Epoch)
			return nil
		})
	case "gc":
		return sh.write(func(ctx context.Context, c *client.Client) error {
			info, err := c.GC(ctx)
			if err != nil {
				return err
			}
			fmt.Println(string(info))
			return nil
		})
	case "checkpoint":
		return sh.write(func(ctx context.Context, c *client.Client) error {
			return c.Checkpoint(ctx)
		})
	case "promote":
		replAddr := ""
		if len(args) > 1 {
			replAddr = args[1]
		}
		return sh.single(func(ctx context.Context, c *client.Client) error {
			st, err := c.Promote(ctx, replAddr)
			if err != nil {
				return err
			}
			fmt.Printf("promoted: role=%s epoch=%d shipping=%s\n", st.Role, st.Epoch, st.ReplicationAddr)
			return nil
		})
	default:
		return fmt.Errorf("unknown command %q (try 'help')", args[0])
	}
}

func parseID(args []string, i int) (uint64, error) {
	if len(args) <= i {
		return 0, fmt.Errorf("missing id")
	}
	return strconv.ParseUint(args[i], 10, 64)
}

// parseValue guesses the value type: int, float, bool, else string
// (quotes stripped).
func parseValue(s string) neograph.Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return neograph.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return neograph.Float(f)
	}
	if s == "true" || s == "false" {
		return neograph.Bool(s == "true")
	}
	return neograph.String(strings.Trim(s, `"`))
}

// tokenize splits on spaces but keeps "quoted strings" whole.
func tokenize(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for _, r := range line {
		switch {
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ' ' && !inQuote:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}
