package main

import (
	"context"
	"fmt"
	"strings"

	"darksim/internal/policy"
)

// runPolicy races management policies head-to-head in the sandbox: a
// workload (a pack scenario via -pack, or a full policy spec via -spec),
// the registered policies (or the spec's selection), assertion-checked
// traces, and an optional tuning pass. The exit status reflects the
// assertion engine: a violated trace exits non-zero even though the
// frontier still prints, so scripted sweeps notice unsafe policies.
func runPolicy(ctx context.Context, e *env, args []string) error {
	fs, w := e.flags, e.out
	specFile := fs.String("spec", "", "JSON policy-sandbox spec file ('-' for stdin)")
	pack := fs.String("pack", "", "race on a built-in pack scenario by name")
	list := fs.Bool("list", false, "list the registered policies")
	policies := fs.String("policies", "", "comma-separated policies to race with -pack (default constant,boost,dsrem)")
	duration := fs.Float64("duration", 0, "simulated seconds per policy with -pack (default 0.5)")
	tune := fs.String("tune", "", "hill-climb this policy's parameters after the head-to-head")
	seed := fs.Int64("seed", 0, "tuner seed with -tune (default 1)")
	budget := fs.Int("budget", 0, "tuner evaluation budget with -tune (default 12)")
	if err := e.parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range policy.Names() {
			p, err := policy.ByName(name, nil)
			if err != nil {
				return err
			}
			tunable := " "
			if _, ok := p.(policy.Tunable); ok {
				tunable = "*"
			}
			fmt.Fprintf(w, "%-12s %s %s\n", name, tunable, p.Info())
		}
		fmt.Fprintln(w, "\n(* = tunable with -tune)")
		return nil
	}

	var spec policy.Spec
	switch {
	case *specFile != "" && *pack != "":
		return fmt.Errorf("policy: -spec and -pack are mutually exclusive")
	case *specFile != "":
		data, err := readSpecFile(*specFile)
		if err != nil {
			return err
		}
		if spec, err = policy.Parse(data); err != nil {
			return err
		}
	case *pack != "":
		spec = policy.Spec{Pack: *pack, DurationS: *duration, Tune: *tune, Seed: *seed, Budget: *budget}
		for _, name := range splitList(*policies) {
			spec.Policies = append(spec.Policies, policy.PolicyConfig{Name: name})
		}
	default:
		fs.Usage()
		return fmt.Errorf("policy: one of -spec, -pack or -list is required")
	}

	res, err := policy.Execute(ctx, spec)
	if err != nil {
		return err
	}
	tables := res.Tables()
	if err := writeTables(w, e.format, "policy", tables, tableText(tables)); err != nil {
		return err
	}
	if res.Violated() {
		return fmt.Errorf("policy: assertion violations or run errors (see tables above)")
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
