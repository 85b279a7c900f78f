package main

import (
	"context"

	"hetsched"
)

// The functions below are the only places an op calls into the
// program. Set-up uses constructors; each measured op goes through one
// of these, so a change to the Communicator's entry points touches one
// function per workload.

// servePlan is one serve-zipf op: a plan request over the wire.
func servePlan(cl *hetsched.PlanClient, req hetsched.PlanRequest) (hetsched.PlanResponse, error) {
	return cl.Plan(context.Background(), req)
}

// runExchange is one exchange-drift op: plan and execute a total
// exchange.
func runExchange(c *hetsched.Communicator, tr hetsched.ExecTransport, sizes *hetsched.Sizes, cfg hetsched.ExecConfig) (*hetsched.DeliveryReport, *hetsched.Result, error) {
	return c.Execute(tr, sizes, cfg)
}

// planRepeated is one repeat-drift op: plan the next instance of a
// repeated exchange.
func planRepeated(c *hetsched.Communicator, sizes *hetsched.Sizes) (*hetsched.Result, error) {
	return c.AllToAllRepeated(sizes)
}
