package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMembershipListNormalizes checks member URLs canonicalize to the form
// the coordinator's backend clients use (http scheme, no trailing slash).
func TestMembershipListNormalizes(t *testing.T) {
	members, err := membershipList("host1:8081, http://host2:8082/", "")
	if err != nil {
		t.Fatalf("membershipList: %v", err)
	}
	want := []string{"http://host1:8081", "http://host2:8082"}
	if len(members) != len(want) {
		t.Fatalf("members = %v, want %v", members, want)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("members[%d] = %q, want %q", i, members[i], want[i])
		}
	}
}

// TestMembershipListRejectsDuplicates drives the duplicate-member refusal:
// the same daemon spelled two ways in -backends, and a -membership file
// repeating a -backends entry. A duplicate would become a second backend
// index with identical ring vnode hashes.
func TestMembershipListRejectsDuplicates(t *testing.T) {
	if _, err := membershipList("host1:8081,http://host1:8081/", ""); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("same daemon spelled two ways: err = %v, want duplicate error", err)
	}

	file := filepath.Join(t.TempDir(), "members.txt")
	if err := os.WriteFile(file, []byte("# members\nhost1:8081\n"), 0o644); err != nil {
		t.Fatalf("writing membership file: %v", err)
	}
	if _, err := membershipList("http://host1:8081", file); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("-backends repeated in -membership: err = %v, want duplicate error", err)
	}
}

// TestServerSetsTimeouts checks the server serve runs bounds how long a
// client may take to send its headers and how long an idle keep-alive
// connection is held.
func TestServerSetsTimeouts(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
}
