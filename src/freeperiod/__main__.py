"""python -m freeperiod runs the freeperiod command line."""

# spawned --jobs workers re-import this module as __mp_main__; the guard
# keeps them from starting the command line themselves
if __name__ == "__main__":
    from .cli import main

    main()
