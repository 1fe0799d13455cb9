package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mlpsim/internal/experiments"
	"mlpsim/internal/server"
)

// serve runs the experiment daemon on addr until SIGTERM/SIGINT, then
// drains: /healthz flips to 503 immediately, in-flight requests get up
// to drainTimeout to finish, and a clean drain exits 0. A non-empty
// fleet list puts the daemon in peer mode: sweep points it does not own
// on the fleet's hash ring are fetched from their owners.
func serve(addr string, setup experiments.Setup, drainTimeout time.Duration, peerID string, fleet []server.Peer) error {
	srv := server.New(server.Options{Setup: setup, PeerID: peerID, Peers: fleet})
	// The handler goes in before the listener opens: a SIGTERM that
	// arrives as soon as /healthz first answers must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}

	// Printed before serving so scripts (and make serve-smoke) can poll
	// for the resolved address, ":0" included.
	fmt.Printf("experiments: serving on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("experiments: %s; draining (up to %s)\n", sig, drainTimeout)
	}

	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("experiments: drained, bye")
	return nil
}
