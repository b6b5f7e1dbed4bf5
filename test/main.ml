let () =
  Alcotest.run "o1mem"
    [
      ("sim", Test_sim.suite);
      ("complexity", Test_complexity.suite);
      ("trace", Test_trace.suite);
      ("profile", Test_profile.suite);
      ("hostprof", Test_hostprof.suite);
      ("physmem", Test_physmem.suite);
      ("alloc", Test_alloc.suite);
      ("mmu", Test_mmu.suite);
      ("fastpath", Test_fastpath.suite);
      ("memfs", Test_memfs.suite);
      ("os", Test_os.suite);
      ("fom", Test_fom.suite);
      ("heap", Test_heap.suite);
      ("workload", Test_workload.suite);
      ("extensions", Test_extensions.suite);
      ("model", Test_model.suite);
      ("smp", Test_smp.suite);
      ("causal", Test_causal.suite);
      ("faults", Test_faults.suite);
      ("store", Test_store.suite);
      ("integration", Test_integration.suite);
      ("metrics", Test_metrics.suite);
    ]
